"""Workload and attack generators driving the experiments."""
