"""Seeded inputs for the benchmark workloads.

A workload's pass is a list of operations, each a CLI argv plus what its
outcome must be.  The pass of a run with seed ``s`` comes from
``random.Random("<workload>:<s>")`` alone, so the same seed gives the same
inputs on every machine and Python 3 version.

* ``certify-large``: the paper's verification table at scale, one CLI process
  per command, so the family caches start cold in every command.
* ``query-stream``: a long-lived process serving a stream of small CLI
  requests in-process; the family caches warm up over the stream.
* ``identity-sweeps``: the lemma sweeps 2.1-2.3 in-process, many short sweeps
  with their own seeds; no polynomial family and no oracle is touched, so the
  caches play no part.
"""

import math
import random

WORKLOADS = ("certify-large", "query-stream", "identity-sweeps")

FAMILIES = ("hermite", "laguerre", "shifted-jacobi", "jacobi-1mx", "monomial")
JACOBI_FAMILIES = ("shifted-jacobi", "jacobi-1mx")
CLOSED_PAIRS = {
    ("laguerre", "hermite"): "3.1",
    ("hermite", "laguerre"): "3.2",
    ("hermite", "jacobi-1mx"): "3.3",
    ("shifted-jacobi", "hermite"): "3.4",
}
#: Closed forms the paper certifies: their ``--method both`` answers must agree.
CERTIFIED = ("3.1", "3.2", "3.4")

#: Jacobi (alpha, beta) pairs regular for every request kind up to degree 40.
JACOBI_POOL = (("0", "0"), ("1/2", "1/2"), ("1", "2"), ("-1/2", "1/3"), ("2", "1/2"))

#: (name, argv, exit code).  The names key the stdout digests in digests.json.
#: Each command takes well under a second, so that a run repeats it many
#: times.
CERTIFY_COMMANDS = (
    ("verify-3.1", ("verify", "--theorem", "3.1", "--n-max", "40"), 0),
    ("verify-3.2", ("verify", "--theorem", "3.2", "--n-max", "40"), 0),
    ("verify-3.4", ("verify", "--theorem", "3.4", "--n-max", "15"), 0),
    ("verify-3.3", ("verify", "--theorem", "3.3", "--n-max", "12"), 1),
    ("table", ("table", "--source", "laguerre", "--target", "hermite", "--n-max", "40"), 0),
)

#: One query-stream pass draws QUERY_DISTINCT_PER_PASS requests, 34% connect
#: --method both on the closed-form pairs, 24% connect --method oracle on the
#: other pairs, 26% poly, 12% table, and QUERY_INVALID_PER_PASS invalid ones;
#: every second one of them is asked twice, so about 44% of the stream
#: repeats an earlier request.
QUERY_DISTINCT_PER_PASS = 704
QUERY_INVALID_PER_PASS = 16
QUERY_MEAN_DEGREE = 10
QUERY_MAX_DEGREE = 40
TABLE_MEAN_N = 4
TABLE_MAX_N = 12
#: One valid query-stream request in this many asks for csv output.
CSV_EVERY = 5

#: (lemma, cases) verified in one identity-sweeps pass, each
#: IDENTITY_CHUNKS times with its own sweep seed.
IDENTITY_SWEEPS = (("2.1", 100), ("2.2", 200), ("2.3", 400))
IDENTITY_CHUNKS = 5


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _op(argv, kind, exit_code=0, **expect):
    return {"argv": list(argv), "kind": kind, "exit": exit_code, **expect}


def certify_pass(seed: int) -> list:
    """The five certify-large commands in a seeded order."""
    ops = [_op(argv, "verify" if name.startswith("verify") else "table", code, name=name)
           for name, argv, code in CERTIFY_COMMANDS]
    _rng("certify-large", seed).shuffle(ops)
    return ops


def _params(rng, *families) -> list:
    if not any(f in JACOBI_FAMILIES for f in families):
        return []
    alpha, beta = rng.choice(JACOBI_POOL)
    return [f"--alpha={alpha}", f"--beta={beta}"]


def _other_pair(rng):
    while True:
        pair = (rng.choice(FAMILIES), rng.choice(FAMILIES))
        if pair not in CLOSED_PAIRS:
            return pair


def _invalid(rng):
    """One request from the documented failure classes; all must exit 2.

    The last class is a known defect: a closed form whose prefactor
    denominator vanishes escapes as a raw ZeroDivisionError instead of
    exiting 2.  Either outcome is accepted; an escape is counted apart.
    """
    n = rng.randint(1, 5)
    kind = rng.randrange(7)
    if kind == 0:
        bad = rng.choice(("1/0", "x", "1.5", "2/"))
        return _op(["poly", "--family", rng.choice(JACOBI_FAMILIES), "--n", str(n),
                    f"--alpha={bad}", "--beta=1"], "invalid", 2)
    if kind == 1:
        return _op(["poly", "--family", rng.choice(JACOBI_FAMILIES), "--n", str(n),
                    "--alpha=1/2"], "invalid", 2)
    if kind == 2:
        return _op(["poly", "--family", rng.choice(("hermite", "laguerre", "monomial")),
                    "--n", str(n), "--alpha=1", "--beta=1"], "invalid", 2)
    if kind == 3:
        source, target = _other_pair(rng)
        return _op(["connect", "--source", source, "--target", target, "--n", str(n),
                    "--method", "closed", *_params(rng, source, target)], "invalid", 2)
    if kind == 4:
        return _op(["connect", "--source", "hermite", "--target", "laguerre",
                    "--n", str(-n)], "invalid", 2)
    if kind == 5:
        return _op(["table", "--source", "laguerre", "--target", "hermite",
                    "--n-max", str(-n)], "invalid", 2)
    beta = rng.choice(("-1", "-2"))
    return _op(["connect", "--source", "shifted-jacobi", "--target", "hermite",
                "--alpha=-6", f"--beta={beta}", "--n", str(n + 2), "--method", "closed"],
               "invalid", 2, may_escape="ZeroDivisionError")


def _quantile_degrees(count: int, mean: float, cap: int) -> list:
    """``count`` degrees at evenly spaced quantiles of an exponential law of this
    mean, capped: the same multiset of degrees in every pass."""
    return [min(cap, int(-mean * math.log(1 - (i + 0.5) / count))) for i in range(count)]


def query_pass(seed: int) -> list:
    """The query-stream requests of one pass, in a seeded order.

    How many requests of each kind go to each family pair, the degrees they
    ask for and how often each Jacobi pair and output format is used are the
    same for every seed (stratified), and so are the requests asked twice;
    the seed picks the order, which degrees ask for csv, and the invalid
    requests.  Seeds then differ in content and in how the caches warm up,
    but hardly in how much work they ask for.
    """
    rng = _rng("query-stream", seed)
    closed = sorted(CLOSED_PAIRS.items())
    others = [(s, t) for s in FAMILIES for t in FAMILIES if (s, t) not in CLOSED_PAIRS]
    ops = []

    def add(kind, share, mean, cap, argv, **expect):
        # Jacobi parameters, the csv format and the requests asked twice
        # rotate through the sorted degrees, the format from a seeded
        # offset, so every seed asks for the same work.
        shift = rng.randrange(CSV_EVERY)
        jacobi = any(word in JACOBI_FAMILIES for word in argv)
        flag = "--n-max" if kind == "table" else "--n"
        count = round(QUERY_DISTINCT_PER_PASS * share)
        for i, degree in enumerate(_quantile_degrees(count, mean, cap)):
            alpha, beta = JACOBI_POOL[i % len(JACOBI_POOL)]
            params = [f"--alpha={alpha}", f"--beta={beta}"] if jacobi else []
            csv = (i // len(JACOBI_POOL) + shift) % CSV_EVERY == 0
            op = _op([*argv, flag, str(degree), *params, *(["--format", "csv"] if csv else [])],
                     kind, **expect)
            ops.extend([op, dict(op)] if (count - i) % 2 else [op])

    for (source, target), theorem in closed:
        add("connect", 0.34 / len(closed), QUERY_MEAN_DEGREE, QUERY_MAX_DEGREE,
            ["connect", "--source", source, "--target", target, "--method", "both"],
            agree=theorem in CERTIFIED)
        add("table", 0.06 / len(closed), TABLE_MEAN_N, TABLE_MAX_N, ["table", "--source", source, "--target", target])
    for source, target in others:
        add("connect", 0.24 / len(others), QUERY_MEAN_DEGREE, QUERY_MAX_DEGREE,
            ["connect", "--source", source, "--target", target, "--method", "oracle"])
        add("table", 0.06 / len(others), TABLE_MEAN_N, TABLE_MAX_N,
            ["table", "--source", source, "--target", target, "--method", "oracle"])
    for family in FAMILIES:
        add("poly", 0.26 / len(FAMILIES), QUERY_MEAN_DEGREE, QUERY_MAX_DEGREE, ["poly", "--family", family])
    for i in range(QUERY_INVALID_PER_PASS):
        op = _invalid(rng)
        ops.extend([op, dict(op)] if i % 2 else [op])
    rng.shuffle(ops)
    return ops


def identity_pass(seed: int) -> list:
    rng = _rng("identity-sweeps", seed)
    ops = []
    for lemma, cases in IDENTITY_SWEEPS:
        for _ in range(IDENTITY_CHUNKS):
            argv = ["verify", "--theorem", lemma, "--cases", str(cases),
                    "--seed", str(rng.randrange(2**31))]
            ops.append(_op(argv, "verify", verdict="pass", ops=_sweep_entries(lemma, cases)))
    return ops


def _sweep_entries(lemma: str, cases: int) -> int:
    """Report entries a lemma sweep returns for ``cases`` (see sweeps.LEMMA_SWEEPS)."""
    return {"2.1": 2 * cases, "2.2": cases + max(cases // 2, 1), "2.3": cases}[lemma]


PASS_INPUTS = {
    "certify-large": certify_pass,
    "query-stream": query_pass,
    "identity-sweeps": identity_pass,
}


def repeat_share(ops) -> float:
    """Share of operations whose argv repeats an earlier one in the pass."""
    seen = set()
    repeats = 0
    for op in ops:
        key = tuple(op["argv"])
        repeats += key in seen
        seen.add(key)
    return repeats / len(ops)


def degree_histogram(ops) -> dict:
    """Requested degree (``--n`` or ``--n-max``) -> number of requests."""
    hist = {}
    for op in ops:
        argv = op["argv"]
        for flag in ("--n", "--n-max"):
            if flag in argv:
                degree = int(argv[argv.index(flag) + 1])
                hist[degree] = hist.get(degree, 0) + 1
    return dict(sorted(hist.items()))
