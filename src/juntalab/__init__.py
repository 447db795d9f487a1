"""Biased-spectrum analysis and exact learning of Boolean juntas."""

from .boolfn import *
from .errors import *
from .fourier import *
from .learner import *
from .measure import *
from .russo import *
from .sampling import *

__version__ = "0.1.0"
