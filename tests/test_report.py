import math

from qhilb.report import ResidualReport


def test_worst_names_the_first_nan_row():
    # max() keeps its first operand against nan, so a nan after the
    # first row would be skipped and a gate that fails on it would name
    # a passing row
    rep = ResidualReport()
    for name, value in (("a", 1e-12), ("b", math.nan), ("c", 1.0), ("d", math.nan)):
        rep.add(name, value)
    name, value = rep.worst()
    assert name == "b" and math.isnan(value)
    assert math.isnan(rep.max_residual)
    assert not rep.passes(1e-9)
    assert "worst b=nan" in repr(rep)


def test_worst_without_nan_is_the_first_largest_row():
    rep = ResidualReport()
    assert rep.worst() == ("", 0.0) and rep.max_residual == 0.0
    for name, value in (("a", 1e-12), ("b", 2.0), ("c", 2.0), ("d", math.inf)):
        rep.add(name, value)
    assert rep.worst() == ("d", math.inf) and rep.max_residual == math.inf
    del rep.residuals["d"]
    assert rep.worst() == ("b", 2.0) and rep.max_residual == 2.0
