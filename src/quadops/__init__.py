"""Exact computer algebra for binary quadratic regular operads.

The package manipulates presentations of regular (nonsymmetric) operads
generated by binary operations subject to quadratic relations: Koszul-style
duals, square products, quotients, free expansion of weight components, and
the generating-series test that a Koszul pair must satisfy. All arithmetic
is exact rational; no floating point is used anywhere.

``quadops.catalog`` is the function ``catalog()``: the package binds the
name over its submodule of the same name, so ``from quadops import
catalog`` and ``import quadops.catalog as m`` give the function too. The
module is ``importlib.import_module("quadops.catalog")``, and ``from
quadops.catalog import builtin`` reads from it as usual.
"""

from .catalog import ASCII_ALIASES, BUILTIN_NAMES, BuiltinCatalog, builtin, catalog
from .dsl import (
    Diagnostic,
    ParseResult,
    format_relation,
    parse,
    parse_relation,
    print_presentation,
)
from .expansion import (
    binary_ops_dimension,
    component_dim,
    format_monomial,
    weight_component,
)
from .linalg import DimensionError, Matrix, Subspace, span
from .presentations import (
    GeneratorMap,
    GeneratorSet,
    Presentation,
    RelVector,
    SignedRelabeling,
    apply_relabeling,
    compose_maps,
    dual,
    find_relabeling_iso,
    is_morphism,
    pairing_value,
    quotient,
    relation_vector,
    square,
)
from .series import (
    SERIES_LIMITATION_NOTE,
    DimSeries,
    dim_series,
    gk_defect,
    predicted_dims,
)
from .verify import (
    CheckReport,
    VerifyConfig,
    report_to_json,
    report_to_text,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "ASCII_ALIASES",
    "BUILTIN_NAMES",
    "BuiltinCatalog",
    "CheckReport",
    "Diagnostic",
    "DimSeries",
    "DimensionError",
    "GeneratorMap",
    "GeneratorSet",
    "Matrix",
    "ParseResult",
    "Presentation",
    "RelVector",
    "SERIES_LIMITATION_NOTE",
    "SignedRelabeling",
    "Subspace",
    "VerifyConfig",
    "apply_relabeling",
    "binary_ops_dimension",
    "builtin",
    "catalog",
    "component_dim",
    "compose_maps",
    "dim_series",
    "dual",
    "find_relabeling_iso",
    "format_monomial",
    "format_relation",
    "gk_defect",
    "is_morphism",
    "pairing_value",
    "parse",
    "parse_relation",
    "predicted_dims",
    "print_presentation",
    "quotient",
    "relation_vector",
    "report_to_json",
    "report_to_text",
    "span",
    "square",
    "verify_all",
    "weight_component",
]
