"""Scalability mechanisms surveyed in Section VI-A, implemented.

* :mod:`repro.scaling.blocksize` — bigger blocks (Segwit2x) vs. node load;
* :mod:`repro.scaling.channels` — off-chain payment channels
  (Lightning / Raiden);
* :mod:`repro.scaling.plasma` — nested chains committing Merkle roots;
* :mod:`repro.scaling.sharding` — K partitions with cross-shard traffic;
* :mod:`repro.scaling.throughput` — TPS measurement and the Visa
  comparator.
"""
