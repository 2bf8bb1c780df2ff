"""The memory budget of the library's bounded loops.

Every loop that walks an unbounded amount of work in pieces sizes its pieces
by ``WORDS``: the engine's blocks of steps (``driver._blocks``), the
confinement samplers' chunks of points (``confinement._chunk_size``), the
slices of outcomes that the coefficient law's expectation and variance walk
(``batching._outcome_sums``), the leaves of ``schedules.sum_of_squares``'
pairwise walk and the chunks of seeds that ``diagnostics.convergence_metrics``
folds.  Each reads it at call time, so patching this one name resizes them
all; none of them changes a bit of its result with the size of its pieces.
"""

# words (8-byte entries) that the largest working array of one piece holds,
# or one step's, point's, outcome's, seed's or numpy pairwise block's, when one
# needs more
WORDS = 1 << 15
