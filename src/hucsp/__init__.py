"""High-utility contiguous sequential pattern mining."""

from .dataio import parse_database
from .miner import MiningConfig, mine

__version__ = "0.1.0"
