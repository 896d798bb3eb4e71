"""Frequency-domain master equation toolkit.

Computes steady-state emission spectra of small open quantum systems directly
in the frequency domain, quantifies non-Markovianity through the relative
entropy between the spectrum and its Markov-limit counterpart, and ships
time-local (Born-Redfield / Born-Markov), waveguide, and exact full-system
references for cross-validation.  Exports each library module's ``__all__``.
"""

from . import baths, fdme, liouville, measures, oracle, redfield, waveguide
from .baths import *
from .fdme import *
from .liouville import *
from .measures import *
from .oracle import *
from .redfield import *
from .waveguide import *

__all__ = [name for m in (baths, fdme, liouville, measures, oracle, redfield, waveguide) for name in m.__all__]
__version__ = "0.1.0"
