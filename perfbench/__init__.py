"""The repository's single benchmark: ``python3 perfbench/run.py --help``."""
