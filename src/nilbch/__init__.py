"""Exact rational arithmetic in free nilpotent Lie algebras and groups.

Each public name below loads its submodule on first use (PEP 562), so
`import nilbch` compiles only `bch` and the `algebra` chain under it. `bch`
is bound at import: it shadows the submodule of the same name, so
`nilbch.bch` is the function and `importlib.import_module("nilbch.bch")`
gives the module.
"""

import importlib

from .bch import bch

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "algebra": (
        "AlgebraContext",
        "LieElement",
        "dimensions_by_degree",
        "eval_bracket_pattern",
        "hall_basis",
        "patterns",
        "rightnormed_decomposition",
    ),
    "bch": ("bch", "bch_tail_table", "conjugation_log", "multi_bch"),
    "errors": (
        "NilbchError",
        "ContextMismatchError",
        "DivisibilityError",
        "GradingError",
        "InternalInvariantError",
        "SizeCapError",
        "UnboundSymbolError",
        "WordSyntaxError",
    ),
    "group": ("GroupElement", "exp", "group_ops", "log", "nested_commutator"),
    "growth": (
        "BracketContainmentReport",
        "CoverReport",
        "FiniteGroupSet",
        "SumContainmentReport",
        "check_commutator_containment",
        "check_sum_containment",
        "compute_B_chain",
        "find_cover",
        "generate_ball",
        "inverse_set",
        "log_set",
        "power_set",
        "powers_up_to",
        "product_set",
        "scale_set",
        "sumset",
        "ut_generators",
    ),
    "identities": (
        "ContainmentCertificate",
        "SumWordResult",
        "SynthesisCertificate",
        "SynthesisResult",
        "VandermondeRecipe",
        "commutator_log_tail",
        "containment_certificate",
        "extract_bracket",
        "power_word_synthesis",
        "sum_word",
        "synthesis_divisors",
        "vandermonde_recipe",
        "verify_synthesis",
    ),
    "matrices": (
        "NilpotentMatrix",
        "UnipotentMatrix",
        "mat_exp",
        "mat_log",
        "mat_mul",
        "mat_power",
        "matrix_group_ops",
        "nil_add",
        "nil_scale",
        "nil_zero",
        "random_nilpotent",
        "random_unipotent",
        "substitute",
    ),
    "series": ("BACKEND",),
    "words": ("FormalWord", "evaluate_word", "parse", "random_word", "serialize", "word_length"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
