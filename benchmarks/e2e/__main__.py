"""``python -m benchmarks.e2e``: see :mod:`benchmarks.e2e.run`."""

from .run import bootstrap

if __name__ == "__main__":
    raise SystemExit(bootstrap())
