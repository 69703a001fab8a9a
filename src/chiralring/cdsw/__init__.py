from .core import Workspace, relations, check_S_power, check_part_i
from .hats import (HatElement, hat_trace, check_prop_hat, guard_prop_hat,
                   check_conj_c1, check_conj_c2_c3)
from .remark import newton_f, check_sln_remark

__all__ = [
    "Workspace", "relations",
    "check_S_power", "check_part_i",
    "HatElement", "hat_trace", "check_prop_hat", "guard_prop_hat",
    "check_conj_c1", "check_conj_c2_c3",
    "newton_f", "check_sln_remark",
]
