#!/usr/bin/env sh
# Repo smoke check: tier-1 tests plus lint (when available).
# Usage: sh scripts/smoke.sh
set -e
cd "$(dirname "$0")/.."

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q

echo "== demo with batching + streaming on =="
PYTHONPATH=src python -m repro demo -n 5 --zkp fiat-shamir \
    --batch-verify --bit-proofs --chunk-sets 2

echo "== demo with auto-detected arithmetic backend =="
PYTHONPATH=src python -m repro demo -n 4 --backend auto

echo "== crash recovery: checkpoint, then resume from durable state =="
CKPT_DIR="$(mktemp -d)"
trap 'rm -rf "$CKPT_DIR"' EXIT
PYTHONPATH=src python -m repro demo -n 5 --checkpoint-dir "$CKPT_DIR"
PYTHONPATH=src python -m repro demo -n 5 --checkpoint-dir "$CKPT_DIR" --resume

echo "== hierarchical sharding: n=64 phase 2 in shards of 16 =="
PYTHONPATH=src python -m repro demo -n 64 --shard-size 16

echo "== --shard-size auto picks the shard size =="
PYTHONPATH=src python -m repro demo -n 24 --shard-size auto

echo "== one-limb group: the default backend against the python reference =="
# The demo's 64-bit test group fits one machine word, so under the
# default gmp backend its powers, inverses and Jacobi symbols cross to
# libgmp one word per operand; the run must carry exactly the python
# reference's per-channel streams (same canonical digest).
INPROC_OUT="$(PYTHONPATH=src python -m repro demo -n 5 --seed 1)"
PYTHON_OUT="$(PYTHONPATH=src python -m repro demo -n 5 --seed 1 \
    --backend python)"
INPROC_DIGEST="$(echo "$INPROC_OUT" | grep '^wire digest:')"
PYTHON_DIGEST="$(echo "$PYTHON_OUT" | grep '^wire digest:')"
echo "$INPROC_DIGEST"
if [ -z "$INPROC_DIGEST" ] || [ "$INPROC_DIGEST" != "$PYTHON_DIGEST" ]; then
    echo "default backend $INPROC_DIGEST differs from python $PYTHON_DIGEST" >&2
    exit 1
fi

echo "== socket transport: one process per party over loopback TCP =="
# The parties ship codec bytes, which must carry exactly the in-process
# run's per-channel streams (same canonical digest).
TCP_OUT="$(PYTHONPATH=src python -m repro demo -n 5 --seed 1 \
    --transport tcp --listen 127.0.0.1:0)"
echo "$TCP_OUT"
TCP_DIGEST="$(echo "$TCP_OUT" | grep '^wire digest:')"
if [ -z "$TCP_DIGEST" ] || [ "$TCP_DIGEST" != "$INPROC_DIGEST" ]; then
    echo "tcp $TCP_DIGEST differs from in-process $INPROC_DIGEST" >&2
    exit 1
fi

echo "== socket transport: checkpoint, then resume from durable state =="
# With --listen the CLI calls run_distributed(resume=...) directly.
TCP_CKPT_DIR="$(mktemp -d)"
trap 'rm -rf "$CKPT_DIR" "$TCP_CKPT_DIR"' EXIT
PYTHONPATH=src python -m repro demo -n 5 --transport tcp \
    --listen 127.0.0.1:0 --checkpoint-dir "$TCP_CKPT_DIR"
PYTHONPATH=src python -m repro demo -n 5 --transport tcp \
    --listen 127.0.0.1:0 --checkpoint-dir "$TCP_CKPT_DIR" --resume

echo "== paper-size group across processes: each party keeps its own memos (native powers, no fixed-base tables, under gmp) =="
PYTHONPATH=src python -m repro demo -n 2 --group dl1024 --transport tcp --listen 127.0.0.1:0

echo "== protocol lint (taint + invariants) =="
PYTHONPATH=src python -m repro.lint --strict

echo "== lint =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src
elif python -c "import ruff" >/dev/null 2>&1; then
    python -m ruff check src
else
    echo "ruff not installed; skipping lint"
fi

echo "smoke OK"
