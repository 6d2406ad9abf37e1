"""Blockchain substrate: Bitcoin-style UTXO chains and Ethereum-style
account/gas chains, with PoW and PoS consensus (Sections II-A, III-A,
IV-A, V-A, VI-A of the paper).
"""
