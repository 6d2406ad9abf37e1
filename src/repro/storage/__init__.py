"""Ledger size accounting and pruning (Section V).

"As every ledger contains all information since its genesis, its size is
constantly increasing."  This package measures real serialized sizes of
our ledgers and implements the pruning remedies: Bitcoin's block-file
pruning and Nano's balance-based pruning with historical/current/light
node types.  Ethereum's fast sync is the account-chain branch of
``BlockchainNode.state_sync_from``.
"""
