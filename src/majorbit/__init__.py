"""Exact-arithmetic majorisation orbits on finite measure spaces.

The commutative core works entirely over rationals: measure spaces with
atoms and a diffuse part, simple functions, decreasing rearrangements,
the majorisation order, an extreme-point criterion with constructive
witnesses, and an independent polytope oracle. A numpy-based module
instantiates the same circle of ideas for Hermitian matrices under the
normalized trace.
"""

from importlib import import_module

# Every public name loads its module on first access (PEP 562), so that a caller imports
# only the layers it uses: the exact core loads no numpy, `rearrange` no criterion or witness.
_LAZY = {
    "errors": ("MajorbitError",),
    "measure": ("MeasureSpace", "Refinement", "SimpleFunction", "add_functions", "equal_ae",
                "parse_function", "parse_space", "refine_diffuse", "scale_function",
                "serialize_function", "serialize_space"),
    "scales": ("IncreasingScale", "MajorisationReport", "StepScale", "add_scales", "co_scale",
               "cumulative", "distribution", "majorise_check", "rearrange", "singular_scale",
               "submajorise_check"),
    "extremality": ("ConstancyInterval", "ExtremalityVerdict", "LevelKind", "check_extreme",
                    "classify_level", "constancy_intervals"),
    "witness": ("Perturbation", "WitnessPair", "admissible_delta", "build_witness",
                "verify_witness"),
    "orbit": ("enumerate_extreme", "oracle_extreme", "partial_average", "sample_orbit"),
    "hermitian": ("BirkhoffDecomposition", "DoublyStochastic", "HermitianOperator",
                  "birkhoff_decompose", "check_extreme_diag", "diag_expectation",
                  "eig_scale", "identity_suite", "matrix_majorise", "schur_horn_check",
                  "t_transform_chain"),
    "prng": ("SplitMix64",),
}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = import_module(f".{module}", __name__)
            globals()[name] = value = loaded if name == module else getattr(loaded, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [name for names in _LAZY.values() for name in names]
