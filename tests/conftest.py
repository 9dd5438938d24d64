from pathlib import Path

import pytest

from synchro import groups, mapping


def write_matrix_file(mats, path) -> None:
    """Write F_2 matrices in the format matrep.parse_matrix_file reads."""
    dim = mats[0].dim
    out = [f"2 {len(mats)} {dim} {dim}"]
    for m in mats:
        out += [
            "".join(str(m.entry(i, j)) for j in range(dim)) for i in range(dim)
        ]
    Path(path).write_text("\n".join(out) + "\n")


def write_group_file(g, path) -> None:
    """Write a group's table in the format groups.read_group_file reads:
    no generators travel with it."""
    rows = [" ".join(map(str, row)) for row in g.table]
    Path(path).write_text("\n".join([f"order {g.order}", *rows]) + "\n")


def catalog_small():
    """Catalog instances of order <= 24 exercised by the search/criterion
    cross-check."""
    specs = (
        [f"z{n}" for n in range(2, 25)]
        + [f"d{n}" for n in range(6, 25, 2)]
        + [
            "klein",
            "q8",
            "a4",
            "s4",
            "s3",
            "elementary 2 3",
            "elementary 2 4",
            "elementary 3 2",
            "z2 x z6",
            "z2 x z10",
            "z3 x s3",
            "z2 x d6",
        ]
    )
    return [(s, groups.make_group(s)) for s in specs]


@pytest.fixture(scope="session")
def small_catalog():
    return catalog_small()


@pytest.fixture(scope="session")
def a5():
    return groups.alternating_group(5)


@pytest.fixture(scope="session")
def a5_mapping(a5):
    """Complete mapping of A5 (even order, so the odd-order shortcut does
    not apply and the exact-cover search runs, once per session)."""
    result = mapping.find_complete_mapping(a5)
    assert result.status is mapping.SearchStatus.FOUND
    return result.mapping
