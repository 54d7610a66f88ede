"""Exact real algebraic geometry toolkit.

Sparse rational polynomial arithmetic, Sturm root counting, symbolic
critical-polynomial certificates, Chow form calculus with the scaling
homotopy, divisor membership tests, and the fan projection demo.

`import rct` loads no submodule, so a process pays only for the modules
its work reads.  The public names below live in their home modules.  A
name, or a submodule such as `rct.parse`, is imported on its first read
(`__getattr__`).  Whenever the import system binds a submodule on the
package, by whatever import, the package binds that module's public
names too (`_Package.__setattr__`), so `rct.X is rct.<home>.X` and later
reads are plain attribute reads.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_PUBLIC = {
    "poly": ("NEG_INF", "Rational", "SparsePoly", "divide_exact",
             "format_poly", "poly_divmod"),
    "parse": ("PolyParseError", "parse_poly", "parse_rational"),
    "sturm": ("EndpointRootError", "RootVerdict", "SturmSeq",
              "cauchy_root_bound", "count_distinct_roots_in",
              "count_distinct_roots_total", "expand_endpoints_clear",
              "isolate_roots_bisection", "sign_changes", "sturm_sequence"),
    "critical": ("D_MAX_DEFAULT", "CriticalSet", "critical_polynomials",
                 "has_d_distinct_real_roots", "in_S_n", "verify_pair_chain"),
    "chow": ("MHForm", "TaffyPath", "TExpansion", "chow_of_linear",
             "chow_of_points", "det_action_check", "eigenform_degree",
             "group_var", "is_suspension", "mul_cycles", "proportional",
             "t_expand", "taffy"),
    "divisors": ("Divisor", "MembershipReport", "e_certificate_forms",
                 "in_E", "in_div_double_prime", "in_div_prime",
                 "paper_family", "positivity_margin", "sampled_sphere_min",
                 "scale_divisor"),
    "fan": ("FanResult", "FiberError", "ZeroCycle", "cycle_distance",
            "default_demo", "limit_check", "psi_demo"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = frozenset(_PUBLIC) | {"cli", "hankel", "parallel"}

__all__ = [name for names in _PUBLIC.values() for name in names]
__all__.append("__version__")


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name in _PUBLIC and isinstance(value, types.ModuleType):
            for attr in _PUBLIC[name]:
                super().__setattr__(attr, getattr(value, attr))


def __getattr__(name):
    home = _HOME.get(name)
    if home is not None:
        return getattr(importlib.import_module(f"{__name__}.{home}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)


sys.modules[__name__].__class__ = _Package
