"""Desk-scale numerical laboratory for local Orlicz-slice Hardy spaces.

Submodules
----------
grid
    Sampled functions on uniform grids; cubes, quadrature, p-means.
orlicz
    Orlicz / Musielak-Orlicz functionals, modulars, Luxemburg norms.
slice_norms
    Orlicz-slice norms, amalgam sum norm, maximal-operator checks.
kernels
    Normalized mollifier dictionaries and grid convolution.
maximal
    The five local maximal functions and their Peetre fields.
atomic
    Calderon-Zygmund decomposition into local atoms.
campanato
    Local Campanato / bmo-type norms and atom pairing bounds.
embeddings
    Amalgam-to-Musielak embedding checks.
families, config, cli
    Seeded test families, scenario configuration, CSV scenario runner.
"""

from .errors import SliceHardyError
from .grid import Cube, GridFunction
from .orlicz import OrliczFunction, log_damped, luxemburg_norm, \
    musielak_log, musielak_norm, power
from .slice_norms import SliceParams, slice_norm, star_norm

__all__ = [
    "Cube", "GridFunction", "OrliczFunction", "SliceHardyError",
    "SliceParams", "log_damped", "luxemburg_norm", "musielak_log",
    "musielak_norm", "power", "slice_norm", "star_norm",
]

__version__ = "0.1.0"
