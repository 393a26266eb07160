"""Allow `python -m depmark` as an alias of the `depmark` script."""

from .cli import run

if __name__ == "__main__":
    run()
