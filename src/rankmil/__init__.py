"""Ranking-based multiple instance learning.

Bags of patch feature vectors get scores from a small instance MLP
whose top-scoring patches are averaged into a bag score; training ranks
one positive bag against pairs of negatives with a margin-plus-
clustering hinge loss. Includes baseline objectives, ranking metrics
with exact tie handling, score-covariate correlation, a synthetic
benchmark generator, and a CLI covering the full pipeline.
"""

from .data import *
from .losses import *
from .metrics import *
from .model import *
from .numerics import *
from .parallel import *
from .synth import *
from .training import *

__version__ = "0.1.0"
