"""frobcrit: exact Frobenius-splitting criteria for spherical orbit closures.

The package works entirely on the weight level with exact rational
arithmetic.  Modules:

- ``rootsys``: root systems, weights, pairings
- ``weyl``: Weyl group elements, enumeration, Steinberg-type identities
- ``embed``: subgroup embeddings as restriction matrices, builders, and the
  criterion input (embedding, J, p)
- ``charalg``: weight multiplicities, dimensions, branching
- ``criteria``: the splitting criteria and their reports
- ``registry``: known good-filtration pairs, and the worked examples as
  records of inputs and expectations, their one source of truth
- ``cli``: the ``frobcrit`` command

Every record in the package (a criterion input, a report and its
conclusions, a registry entry) is a ``collections.namedtuple``:
``typing.NamedTuple`` would bring ``typing``, ``warnings`` and
``contextlib``, and ``dataclasses`` would bring ``inspect``, ``ast``, ``dis``
and ``tokenize``, onto the import path of every ``frobcrit`` start.  A
record is immutable; build a changed copy with ``_replace`` (a
``CriterionInput`` copy is normalised like a new one).
"""

from .charalg import (
    BranchCapExceeded,
    branch,
    freudenthal,
    weyl_dim,
)
from .criteria import (
    CriterionReport,
    check_main,
    conjugated_borel_check,
    lemma53_min_p,
    thm41_hypotheses,
)
from .embed import CriterionInput, Embedding, detect_twist, restrict, rho_h, validate
from .registry import lookup_donkin
from .rootsys import (
    RootSystem,
    Weight,
    build_root_system,
    rho,
    rho_J,
    root_to_weight,
)
from .weyl import (
    EnumerationCapExceeded,
    WeylElement,
    enumerate_parabolic,
    from_word,
    longest_element,
    verify_st_decomp,
)

__version__ = "0.1.0"

__all__ = [
    "BranchCapExceeded", "branch", "freudenthal", "weyl_dim",
    "CriterionInput", "CriterionReport", "check_main", "conjugated_borel_check",
    "lemma53_min_p", "thm41_hypotheses",
    "Embedding", "detect_twist", "restrict", "rho_h", "validate",
    "lookup_donkin",
    "RootSystem", "Weight", "build_root_system", "rho", "rho_J", "root_to_weight",
    "EnumerationCapExceeded", "WeylElement", "enumerate_parabolic", "from_word",
    "longest_element", "verify_st_decomp",
    "__version__",
]
