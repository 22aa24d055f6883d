"""The command line's exit contract as a property over each subcommand's flag
table: every run ends in exit 0, or in exit 2 with a message that names one
of the subcommand's flags (as ``--flag-name`` or as the option name
``flag_name``).  Values come from edge magnitudes (1e+-300, 1e+-200,
1e+-15, subnormals, zero, negatives) beside ordinary ones, and sizes stay
small.  A numpy warning fails the run too: the suite turns warnings into
errors, and the CLI reports those as exit 1.
"""

import contextlib
import io
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equilab import cli

UNIT = ("5e-324", "1e-300", "1e-15", "0.05", "0.2", "0.5", "0.8", "0.999999999999999")
POSITIVE = ("5e-324", "1e-310", "1e-300", "1e-200", "1e-15", "0.5", "1", "2.5", "1e15",
            "1e200", "1e300")
ANY = POSITIVE + ("0", "-5e-324", "-1e-300", "-1e-15", "-0.5", "-1e15", "-1e300")
SMALL = ("1", "2", "3", "5", "7", "10", "20", "30")
# flags whose values mostly come from a narrower pool, so that more runs get
# past validation; every flag also draws from ANY
POOLS = {**dict.fromkeys(("alpha", "alpha_upper", "alpha_lower", "theta_alt", "storey_lambda",
                          "w"), UNIT),
         **dict.fromkeys(("sigma", "tau", "epsilon_star"), POSITIVE),
         "resolution": ("1e-5", "1e-4", "1e-3") + UNIT}
BINOMIAL = ("conservativity", "power-curve", "theta-max", "tables")


def numbers(pool):
    return st.sampled_from(pool * 3 + ANY)


def sizes():
    return st.sampled_from(SMALL * 3 + ("-1", "0"))


def pair(pool, ordered):
    values = st.lists(numbers(pool), min_size=2, max_size=2)
    if ordered:
        values = st.one_of(values.map(lambda v: sorted(v, key=float)), values)
    return values.map(",".join)


def grid(pool):
    listed = st.lists(numbers(pool), min_size=1, max_size=3).map(
        lambda v: ",".join(sorted(v, key=float)))
    ranged = st.tuples(numbers(pool), numbers(pool), numbers(POSITIVE)).map(":".join)
    return st.one_of(listed, ranged)


def counts():
    listed = st.lists(sizes(), min_size=1, max_size=3).map(",".join)
    return st.one_of(listed, st.tuples(sizes(), sizes(), sizes()).map(":".join))


def value_of(name, command):
    """A strategy for the text of flag ``name`` of ``command``."""
    kind = cli.FLAG_TYPES[name]
    if isinstance(kind, tuple):
        return st.sampled_from(kind + ("bogus",))
    if kind is int or kind is cli.parse_seed:
        return sizes()
    if kind is cli.parse_draws:
        return st.sampled_from(("0", "3", "4", "5", "10", "40"))
    if kind is cli.parse_float:
        return numbers(POOLS.get(name, ANY))
    if kind is cli.parse_margin:
        return pair(UNIT if command in BINOMIAL else ANY, ordered=True)
    if kind is cli.parse_beta_prior:
        return pair(POSITIVE, ordered=False)
    if kind in (cli.parse_grid, cli.parse_level_grid, cli.parse_theta_grid):
        return grid(UNIT)
    if kind is cli.parse_count_grid:
        return counts()
    if kind is cli.parse_rows:
        return sizes().map("n={}".format)
    raise AssertionError(f"no strategy for --{name}")


# sizes that default to large values are always passed, small
ALWAYS = {"n", "k", "reps", "draws", "row", "k1_grid"}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(cli.SUBCOMMANDS)))
    argv = [command]
    for name, default in cli.SUBCOMMANDS[command][2].items():
        if name == "out":
            continue
        required = default is cli.REQUIRED or name in ALWAYS
        if not required and not draw(st.booleans()):
            continue
        if cli.FLAG_TYPES[name] is cli.parse_switch:
            argv.append(cli._flag(name))
        else:
            argv.append(f"{cli._flag(name)}={draw(value_of(name, command))}")
    return argv


def names_a_flag(command, message):
    for name in cli.SUBCOMMANDS[command][2]:
        for spelling in (name, name.replace("_", "-")):
            if re.search(rf"(?<![A-Za-z0-9]){re.escape(spelling)}(?![A-Za-z0-9])", message):
                return True
    return False


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("exit-contract")


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argv=argvs())
# a subnormal theta in the PMF's deviance, a prior shape of 1e-300 in the
# incomplete beta's front factor, a sigma / tau past the float range, which
# makes the normal posterior coefficient 0, and the smallest subnormal level,
# whose half rounds to 0 in the posterior region's bracket
@example(argv=["conservativity", "--margin=5e-324,1e-300", "--n=2"])
@example(argv=["power-curve", "--n", "30", "--margin", "0.2,0.8", "--prior-beta", "1e-300,1"])
@example(argv=["noise-cdf", "--n", "30", "--sigma", "1e-15", "--margin", "1,4", "--theta", "1.5",
               "--tau", "5e-324"])
@example(argv=["noise-cdf", "--n", "30", "--sigma", "2", "--margin", "1,4", "--theta", "1.5",
               "--tau", "0.5", "--t-grid", "5e-324,0.5"])
def test_every_run_exits_0_or_2_naming_a_flag(out_dir, argv):
    out = str(out_dir / "out.csv")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--out", out])
    message = err.getvalue().strip()
    assert code in (0, 2), (code, message)
    if code == 2:
        assert names_a_flag(argv[0], message), message


@pytest.mark.parametrize("combination", ["max", "difference"])
def test_bayesian_fdr_power_refuses_combination(out_dir, combination):
    # Bayesian evidence sums its two tails: --combination is not read there
    argv = ["fdr-power", "--n", "20", "--margin", "0,2", "--k", "20", "--k1-grid", "5",
            "--reps", "2", "--evidence", "bayesian", "--combination", combination,
            "--out", str(out_dir / "combination.csv")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(argv) == 2
    assert "--evidence bayesian does not read --combination" in err.getvalue()
