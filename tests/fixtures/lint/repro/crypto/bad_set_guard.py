"""Fixture: a whole-set peel without a dominating validation check (R-GUARD)."""


def sloppy_chain_hop(distkey, ciphertexts, secret_key):
    return distkey.peel_layers(ciphertexts, secret_key)
