"""Summary statistics, service-level curves and report tables."""
