"""Quorum-certificate BFT consensus on the shared protocol stack.

The source paper contrasts Nakamoto-style probabilistic finality
(Section III) with the DAG paradigms' per-account / tangle confirmation
(Section IV); both SoKs in PAPERS.md treat committee-based BFT finality
as the third axis.  This package adds that contender: a HotStuff-style
rotating-leader engine with explicit quorum certificates, riding the
same TransportLayer / IntakeLayer / ProtocolNode pipeline as the other
four node types, so it drops into the parity matrix, the fuzzer and the
bench registry unchanged.
"""
