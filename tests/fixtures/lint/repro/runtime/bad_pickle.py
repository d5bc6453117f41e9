"""Fixture: a frame body unpickled straight off the socket (R-PICKLE)."""

import pickle


def on_frame(body):
    return pickle.loads(body)
