"""weillab: Weil quartics of abelian surfaces over finite fields.

Classifies the isogeny classes carrying no curves of genus up to 2,
decides whether a class contains a surface with a degree-4 polarisation
(equivalently an irreducible curve of arithmetic genus 3), computes the
2-adic field data driving that decision, and gives point-count
intervals.  All computation is exact integer arithmetic.

Each public name is written once, in ``_PUBLIC``, beside the submodule
that defines it; ``__all__`` is their sorted union.  ``import weillab``
imports ``core`` and ``classify`` and binds their names.  The other
names, and the submodules ``records``, ``bounds``, ``two_adic``,
``verdict`` and ``cli``, are loaded on first use (PEP 562) and then kept
in the package namespace, so a command line run loads only the modules
its subcommand needs.  ``weillab.classify`` is the function, not its
submodule.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines; the first two are imported with the package
_PUBLIC = {
    "core": (
        "InternalInvariantError",
        "MalformedLabel",
        "NotPrimePower",
        "NotWeil",
        "WeilQuartic",
        "floor_2sqrt",
        "fplus_discriminant",
        "is_irreducible_over_Q",
        "make_weil_quartic",
        "parse_label",
        "render_label",
        "squarefree_part",
    ),
    "classify": ("ClassKind", "Family", "PRankClass", "WrongKind", "classify", "enumerate_classes", "p_rank_class"),
    "bounds": (
        "BoundFamily",
        "PointBounds",
        "genus_bounds_on_surface",
        "non_pp_bounds",
        "serre_weil_interval",
        "weil_restriction_bounds",
    ),
    "records": ("ClassRecord", "build_record", "records_for_q", "with_mirrors"),
    "two_adic": ("ConjugationTag", "DegenerateDiscriminant", "Shape2", "Split2", "TwoAdicData", "two_adic_data"),
    "verdict": ("Genus3Verdict", "SPECIAL_Q3_WITNESS", "curve_shape_constraints", "genus3_verdict"),
    "cli": (),
}
# public name -> its submodule
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_HOME)

# binding classify's names after its import replaces the submodule with the function
for _module in ("core", "classify"):
    _namespace = vars(_import_module(f"{__name__}.{_module}"))
    globals().update((name, _namespace[name]) for name in _PUBLIC[_module])
del _module, _namespace


def __getattr__(name: str):
    """A lazily loaded submodule or public name, kept in the namespace once loaded (PEP 562)."""
    if name in _PUBLIC:
        value = _import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC, *_HOME})
