import os

import pytest

from witrees import asymptotics, exact

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="session")
def btab300():
    return exact.count_binary_upto(300)


@pytest.fixture(scope="session")
def bmn60():
    return exact.count_by_max_label(60)


@pytest.fixture(scope="session")
def htab3_60():
    return exact.count_kary_upto(3, 60)


@pytest.fixture(scope="session")
def prec30():
    return asymptotics.Precision(30)


@pytest.fixture(scope="session")
def bseq1200(prec30):
    return asymptotics.scaled_b_recurrence(1200, prec30)


@pytest.fixture(scope="session")
def aseq1200(bseq1200):
    return asymptotics.correction_a(1200, bseq1200)


@pytest.fixture(scope="session")
def hseq3_2000(prec30):
    return asymptotics.scaled_h_recurrence(3, 2000, prec30)


@pytest.fixture(scope="session")
def bfile_fixture_path():
    return os.path.join(FIXTURES, "b171792.txt")
