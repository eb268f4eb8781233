"""Base 3/2 numeration and the greedy partition into 3-free sequences."""

from .fractal import (
    CheckReport,
    HalfZ,
    check_minus1,
    check_zero_column,
    halfz_of,
    locate,
    row_values_below,
    ternary_successor,
    traversal,
    zoom_coord,
    zoom_out,
)
from .greedy import (
    GreedyPartition,
    InsufficientRangeError,
    build_partition,
    cross_sequence,
)
from .grid import GridCoord, GridWindow, MalformedStringError, binary_string, cell, main_suffix, row_of, window
from .radix import (
    BASE_3,
    BASE_3_2,
    InvalidDigitError,
    RationalBase,
    add_two,
    canonicalize,
    evaluate,
    represent,
)
from .refdata import ReferenceSequence, bundled, parse_bfile
from .verify import VerificationReport, run_suite
# The headline construction function lives at stanleygrid.witness.witness;
# re-exporting it here would shadow the submodule, so only the helpers and
# types are lifted to the package root.
from .witness import (
    NotApplicableError,
    WitnessPair,
    decompose,
    witness_oracle,
)

__version__ = "0.1.0"
