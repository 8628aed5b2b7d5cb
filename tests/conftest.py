import os
import random

import pytest

SEED = int(os.environ.get("FIBLANG_SEED", "0"))

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def category_reads(monkeypatch):
    """The number of table entries that each category check of cli.load
    reads in its walks over the category's rows, one count per category in
    load order; the walks of functor and presheaf checks are not counted."""
    from fibcat import cli
    from fibcat.fincat import FinCat

    reads, counting, validated = [], [False], cli._validated

    class Row(dict):
        def items(self):
            for entry in super().items():
                reads[-1] += counting[0]
                yield entry

    def counted(where, validate, x, *args):
        if isinstance(x, FinCat):
            for g in list(x.compose):
                x.compose[g] = Row(x.compose[g])
            reads.append(0)
            counting[0] = True
        try:
            return validated(where, validate, x, *args)
        finally:
            counting[0] = False

    monkeypatch.setattr(cli, "_validated", counted)
    return reads
