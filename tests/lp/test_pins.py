"""Literal pins of what an LP hands out: its names and its basis.

The names of every column and row of the MC-PERF LP, for each of the
eleven Table-3 classes on the tier-1 WEB and GROUP fixtures, are pinned as
the SHA-256 of the names joined by newlines.  Audit messages and the
infeasibility diagnosis (by each name's family prefix) quote them.

The basis of a small solved LP that mixes ``<=``, ``>=`` and ``==`` rows
with boxed, fixed and free columns is pinned as ``Basis.to_dict()``, cold
and after a ``set_rhs`` hot start: cached payloads and the service's warm
store keep reading the same status format.  Both optima are unique and
non-degenerate, so the statuses are the LP's, not the pivoting's.
"""

import hashlib

import numpy as np
import pytest

from repro.core.classes import STANDARD_CLASSES
from repro.core.formulation import build_formulation
from repro.lp.model import LinearProgram
from repro.runner.digest import SCHEMA_VERSION

#: (columns, rows, SHA-256 of the column names, SHA-256 of the row names).
NAME_DIGESTS = {
    "web/caching": (
        672, 480,
        "88f390a76546912a09098b1019a1c751d1081502c28c2bb62b6f2904d9f42935",
        "7c023efc16c468851b9b0425d73c166e3d4591225ac72447cfc3fc32619e727f",
    ),
    "web/caching-prefetch": (
        888, 628,
        "2752c53cea6a688e6afd3f3563396c64e21af70e88ced770cc3a84d568e2a0c8",
        "60a2e7dc7d2989d0d63b2dcf4c7dc72522df26135a63deb96e5124797218daed",
    ),
    "web/cooperative-caching": (
        864, 576,
        "373cbc56b1705ada4e00445c48bf2be897ef4df690e3a059b20210adb7c726e8",
        "e8dbb86c635f71f79f7c26211cfe93b58dc68bcb68e116ccbaaa5db2f27ff5ee",
    ),
    "web/cooperative-caching-prefetch": (
        1046, 695,
        "060fb2c0a6ab687dd1ce1af6fbd809d0ea823d4e3775f44b46ada87bbb8da040",
        "3534d3168ac5f1e6a934fa001dc8074171b3c160f17a8189ab1c0fb302089f38",
    ),
    "web/decentralized-local-routing": (
        914, 628,
        "30384f9de2b5f6343ed025f07f63c76d97d67ef45b2d3c6cb65da78fbf9e9ea5",
        "60a2e7dc7d2989d0d63b2dcf4c7dc72522df26135a63deb96e5124797218daed",
    ),
    "web/general": (
        659, 477,
        "0de37244d520fe797f69e773cbe2716aa7d7d79c38c205229b758cb3ed964877",
        "09e5d85f661847552592d259e8abdd0911fc9cb8251e9a941dbb84aefa6e36d1",
    ),
    "web/reactive": (
        861, 552,
        "de71f61c137ce67a5127131c84ff23dde34c8fc208aa7e66ce3ad92ce103d571",
        "323fdbf6e06f7687604c756ef34617dd6dce640c1216dfb609301d7fed17d8df",
    ),
    "web/replica-constrained": (
        660, 586,
        "06bf0aea0e55baf37c4b5960c309aac04aae84fa58f4f1e16f9b3baa9d4f0e5c",
        "feb2fab9a6b99500f641beea5710e23b51df038ddba9091c90d3e641ce2f6260",
    ),
    "web/replica-constrained-per-object": (
        683, 586,
        "930387d597aef9d41fb3095ee9aa1a708170091cd4905c8740bf33a33461fb4c",
        "feb2fab9a6b99500f641beea5710e23b51df038ddba9091c90d3e641ce2f6260",
    ),
    "web/storage-constrained": (
        1048, 695,
        "d7480da10fc6da3952500f76af427046f58d1b963509741d86d587f66b8ca685",
        "3534d3168ac5f1e6a934fa001dc8074171b3c160f17a8189ab1c0fb302089f38",
    ),
    "web/storage-constrained-per-node": (
        1051, 695,
        "3461e5b974fe07d6baaf6ec07ea2306c6aec4fe223f68b1ae4d13ac3b8dc6765",
        "3534d3168ac5f1e6a934fa001dc8074171b3c160f17a8189ab1c0fb302089f38",
    ),
    "group/caching": (
        283, 228,
        "194fb083600490837cdd238936dffebe4711df7218361357a5f30ba6006cd79f",
        "8ef6715e7b5c09a148a85bb6cea76fc57664d34bc1172d20aa9c6af5d7e3b61c",
    ),
    "group/caching-prefetch": (
        412, 318,
        "20514cafb90c8ac575f74e4bd7bfd2ad08986a7af64d2dc6999a0b28fc00b1a4",
        "977fc672cffab05212ce4388140c9c6fe33cfe47decc10f2d41d7bd0abca3294",
    ),
    "group/cooperative-caching": (
        498, 323,
        "eeb8aac6e3d93264691a2a77c05895f1651aadb577f965bcdafb82bb9f92f70c",
        "01ecf46dc5dcc8cfb6d0e259e9e0fc0a7425abd3c0df5cdb539fe5a1c59d90f6",
    ),
    "group/cooperative-caching-prefetch": (
        585, 381,
        "db1f3663c2c1d3653d45b5f5828685d635fb9f3fddf5b8b2a7c0e3670e39aabf",
        "d8b3b3802c7136904db10c4d68428fc6ab2573eab39e7d54c8be7e90bfaca2a6",
    ),
    "group/decentralized-local-routing": (
        460, 318,
        "93b73a37d8b594a752613fb36fe4be73b7db0bde03522e40150ff483e381ab26",
        "977fc672cffab05212ce4388140c9c6fe33cfe47decc10f2d41d7bd0abca3294",
    ),
    "group/general": (
        339, 234,
        "03292b9ac3480fc8e1819c96187e7fa239abc586301fd1eee0ddc0dbee642715",
        "ed83d02bbdad17af0e5254811677ddcbd5364b257e69239c6394e7177ba00589",
    ),
    "group/reactive": (
        497, 302,
        "ad0bbc2bbe67d2bbd9be434296807cbff7e56815a6605d7d74dc158243c83612",
        "c8b07168dd89581c8db4b676d9643c696487742a608327af438e2d1ff911f4a9",
    ),
    "group/replica-constrained": (
        340, 303,
        "ec08edfb47b12d5697e8b3cac6b643aaa0b0baefe23661a0c3dc4f17e8546115",
        "50c1f508243613dec4fdb0cf524779b4363faad7a61a23b8a9b8938302f58e6e",
    ),
    "group/replica-constrained-per-object": (
        351, 303,
        "cf40831600cfe9fd2054deafeb129140836b7cb41f1124b3acb85b7db860abe5",
        "50c1f508243613dec4fdb0cf524779b4363faad7a61a23b8a9b8938302f58e6e",
    ),
    "group/storage-constrained": (
        586, 381,
        "3c05bc64e7d483fc7410028755163bc3d99bacea1bbe8a08c919604d7a4136fa",
        "d8b3b3802c7136904db10c4d68428fc6ab2573eab39e7d54c8be7e90bfaca2a6",
    ),
    "group/storage-constrained-per-node": (
        589, 381,
        "065dafb63f9aac4b24666023d4305cee2162985d352b92a7aded8e522a39358c",
        "d8b3b3802c7136904db10c4d68428fc6ab2573eab39e7d54c8be7e90bfaca2a6",
    ),
}


def digest(names):
    return hashlib.sha256("\n".join(names).encode()).hexdigest()


@pytest.mark.parametrize("problem_name", ["web_problem", "group_problem"])
@pytest.mark.parametrize("class_name", sorted(STANDARD_CLASSES))
def test_names_are_pinned(request, problem_name, class_name):
    problem = request.getfixturevalue(problem_name)
    lp = build_formulation(problem, STANDARD_CLASSES[class_name].properties).lp
    key = f"{problem_name.split('_')[0]}/{class_name}"
    nvars, nrows, var_digest, row_digest = NAME_DIGESTS[key]
    assert (lp.num_variables, lp.num_constraints) == (nvars, nrows)
    assert digest(lp.var_names()) == var_digest
    assert digest(lp.row_names()) == row_digest
    # One at a time, as an audit message renders them.
    assert digest(map(lp.var_name, range(nvars))) == var_digest
    assert digest(map(lp.row_name, range(nrows))) == row_digest


def mixed_lp():
    """Boxed, fixed and free columns under <=, >= and == rows."""
    lp = LinearProgram(name="pin")
    lp.var("box0", upper=4.0, obj=1.0)
    lp.var("box1", upper=3.0, obj=2.0)
    lp.var("fixed", lower=1.5, upper=1.5, obj=0.5)
    lp.var("free", lower=-np.inf, upper=None)
    lp.var("box4", upper=2.0, obj=-1.5)
    lp.var("idle", lower=-np.inf, upper=None)  # in no row: nonbasic at zero
    lp.add_row([0, 1], [1.0, 1.0], ">=", 3.0)
    lp.add_row([0, 4], [1.0, 1.0], "<=", 6.0)
    lp.add_row([3, 0], [1.0, -1.0], "==", 1.0)
    lp.add_row([1, 2], [1.0, 1.0], "<=", 5.0)
    lp.add_row([2, 3], [1.0, 1.0], ">=", 2.0)
    return lp


def test_basis_is_pinned_cold_and_after_a_hot_start():
    assert SCHEMA_VERSION == "3"
    lp = mixed_lp()
    cold = lp.solve()
    assert cold.objective == 0.75
    assert cold.values.tolist() == [3.0, 0.0, 1.5, 4.0, 2.0, 0.0]
    assert list(cold.duals) == [1.0, -0.0, -0.0, -0.0, 0.0]
    assert cold.basis.to_dict() == {
        "statuses": [0, 1, 1, 0, 2, 3, 2, 0, 1, 0, 0],
        "nvars": 6,
        "nrows": 5,
    }
    # The <= row becomes binding and box1 enters the basis.
    lp.set_rhs(1, 4.0)
    hot = lp.solve()
    assert lp._highs is not None
    assert hot.objective == 1.75
    assert hot.values.tolist() == [2.0, 1.0, 1.5, 3.0, 2.0, 0.0]
    assert list(hot.duals) == [2.0, -1.0, -0.0, -0.0, 0.0]
    assert hot.basis.to_dict() == {
        "statuses": [0, 0, 1, 0, 2, 3, 2, 1, 1, 0, 0],
        "nvars": 6,
        "nrows": 5,
    }
