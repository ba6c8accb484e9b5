"""Central table of numeric defaults.

The solver tolerance, the caps and the modulus grid and ladder are defined
here.  Three tolerances are not: they are literals at their parameters.  They
are the conjugacy enclosure width 1e-8 (``conjugacy_enclosures``,
``conjugacy_eval``, ``conjugacy_residual``, ``circledyn conjugacy --tol``),
the enclosure width 1e-10 (``ConjugacyMap``, ``circledyn analyze ... --tol``)
and the Markov check's bound 1e-9 (``verify_markov``).

The depth, cell and work caps and the grid and ladder (MODULUS_GRID,
SCALE_LADDER) are defaults of explicit parameters, but ``interval_of_word``,
``word_of_point`` and ``itinerary_batch`` read DEPTH_CAP where they use it;
SOLVER_TOL, DEGREE_CAP, MIN_CUT_GAP and QS_DENOM_FLOOR are read where they
are used and take no parameter.

===================  ============  ====================================================
name                 default       used by
===================  ============  ====================================================
SOLVER_TOL           1e-13         bracket width at which every root solve stops;
                                   a root is within max(SOLVER_TOL/2, 1.25*pad/m)
                                   (circle_maps._root_error; m = D - |a|)
DEPTH_CAP            60            max word length / inverse-iteration depth
CONJUGACY_DEPTH_CAP  48            max refinement depth for conjugacy enclosures
CELL_CAP             2**20         max cylinder count for a fully enumerated level;
                                   the CLI also caps, before building any, the
                                   points of `conjugacy --grid` and `analyze
                                   symmetry` and the intervals of `analyze measure`
DEGREE_CAP           2**10         max map degree, checked at validation before any
                                   per-branch table is built
WORK_CAP             10**7         max excluded-word tuple count in tail sums
MIN_CUT_GAP          1e-9          smallest admissible branch width at validation,
                                   and smallest admissible slope floor
                                   ``slope_bounds(spec)[0]`` of a conjugated map
QS_DENOM_FLOOR       1e-300        denominator floor for distortion ratios
MODULUS_GRID         1024          default x-grid for modulus reports
SCALE_LADDER         2^-1..2^-20   default t-ladder for modulus reports
===================  ============  ====================================================

The caps can be overridden per CLI invocation through the environment
variables ``CIRCLEDYN_WORK_CAP``, ``CIRCLEDYN_CELL_CAP`` and
``CIRCLEDYN_DEPTH_CAP`` (see :mod:`circledyn.cli`).
"""

SOLVER_TOL = 1e-13
DEPTH_CAP = 60
CONJUGACY_DEPTH_CAP = 48
CELL_CAP = 2**20
DEGREE_CAP = 2**10
WORK_CAP = 10**7
MIN_CUT_GAP = 1e-9
QS_DENOM_FLOOR = 1e-300
MODULUS_GRID = 1024
SCALE_LADDER = tuple(2.0**-j for j in range(1, 21))
