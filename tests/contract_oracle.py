"""The README's "Randomness contract", implemented from its text alone.

This module imports nothing from ``hrru`` and nothing outside the
standard library (``tests/test_dead_code.py`` checks both), so where
the package agrees with it bit for bit, the README states the package's
simulations completely.  It is slow on purpose: one Python step at a
time, every uniform evaluated from its (key, counter) pair.

``trajectories(config, rep, steps)`` runs replication ``rep`` of a
config dict in the README's JSON schema and returns, per urn label, the
columns N X R H S Z M of the ``simulate`` table as Python lists.
``snapshot(columns, h)`` reduces such columns at horizon ``h`` as the
"Reductions" paragraph says.
"""

from bisect import bisect_right
from itertools import accumulate

MASK = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15
COLUMNS = "NXRHSZM"


def mix64(x: int) -> int:
    x &= MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def fnv1a(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & MASK
    return h


def derive_key(key: int, *parts) -> int:
    for part in parts:
        tag = fnv1a(part) if isinstance(part, str) else part
        key = mix64((key ^ mix64(tag)) + GOLDEN)
    return key


def uniform(key: int, counter: int) -> float:
    return (mix64(key + (counter + 1) * GOLDEN) >> 11) * 2.0**-53


def _scaled(low: int, span: int):
    return lambda t, u, p: low + min(int(u * span), span - 1)


def _finite(values: list, probs: list):
    cdf = list(accumulate(float(p) for p in probs))
    cdf[-1] = 1.0
    return lambda t, u, p: values[min(bisect_right(cdf, u), len(values) - 1)]


def _walk(start: int, high: int):
    def emit(t, u, p):
        if t == 0:
            return start
        if p in (1, high):
            return p
        return p + 1 if u < 0.5 else p - 1
    return emit


def policy(spec: dict):
    """(stream lag or None, largest emission, emit(t, u, previous))."""
    name = spec["policy"]
    if name == "constant-one":
        return None, 1, lambda t, u, p: 1
    if name == "constant":
        return None, spec["value"], lambda t, u, p: spec["value"]
    if name == "schedule":
        values = spec["values"]
        return None, max(values), lambda t, u, p: values[min(t, len(values) - 1)]
    if name == "iid-uniform":
        return 0, spec["high"], _scaled(1, spec["high"])
    if name == "uniform-range":
        return 0, spec["high"], _scaled(spec["low"], spec["high"] - spec["low"] + 1)
    if name == "discrete":
        return 0, max(spec["values"]), _finite(spec["values"], spec["probs"])
    if name == "absorbing-walk":
        return 1, spec["high"], _walk(spec["start"], spec["high"])
    raise ValueError(f"no policy {name!r} in the README")


def _system_law(base: int, factor: dict | None):
    # A system urn's law: the factor law shifted by the urn's base, or
    # the base alone, reading no stream, where the factor is absent.
    if factor is None:
        return None, base, lambda t, u, p: base
    return policy({"policy": "discrete", "values": [base + v for v in factor["values"]],
                   "probs": factor["probs"]})


def urns(config: dict) -> tuple[list, int]:
    """Each urn as (label, a, b, draw, reinforcement, key path of its
    draw stream, of its reinforcement stream), and the extraction stride."""
    if "urn" in config:
        u = config["urn"]
        label = u.get("label", "u0")
        draw = policy(u["draw"])
        own = ("urn", label)
        return [(label, u["a"], u["b"], draw, policy(u["reinforce"]),
                 (*own, "draw"), (*own, "reinforce"))], draw[1]
    factors = config.get("factors", {})
    out = [(u["label"], u["a"], u["b"],
            _system_law(u["draw_base"], factors.get("draw")),
            _system_law(u["reinforce_base"], factors.get("reinforce")),
            ("factor-draw",), ("factor-reinforce",)) for u in config["urns"]]
    return out, max(draw[1] for _, _, _, draw, _, _, _ in out)


def _emit(pol, key: int, t: int, previous):
    lag, _, emit = pol
    u = None if lag is None or t < lag else uniform(key, t - lag)
    return emit(t, u, previous)


def chain(key: int, first: int, n: int, h: int, s: int) -> int:
    """Marked balls among ``n`` drawn without replacement from ``s``
    holding ``h``: ball ``i`` reads counter ``first + i`` of ``key``."""
    h_rem, s_rem = h, s
    for i in range(n):
        if uniform(key, first + i) < h_rem / s_rem:
            h_rem -= 1
        s_rem -= 1
    return h - h_rem


def trajectories(config: dict, rep: int, steps: int) -> dict[str, dict[str, list]]:
    rep_key = derive_key(config["plan"]["seed"] & MASK, "rep", rep)
    slots, stride = urns(config)
    out = {}
    for label, a, b, draw, reinforce, draw_path, reinforce_path in slots:
        draw_key = derive_key(rep_key, *draw_path)
        reinforce_key = derive_key(rep_key, *reinforce_path)
        extract_key = derive_key(rep_key, "urn", label, "extract")
        cols = {c: [] for c in COLUMNS}
        h, s, n, x_over_n = a, a + b, None, 0.0
        for t in range(steps):
            n = _emit(draw, draw_key, t, n)
            r = _emit(reinforce, reinforce_key, t, None)
            x = chain(extract_key, t * stride, n, h, s)
            h, s = h + r * x, s + r * n
            x_over_n += x / n
            for c, v in zip(COLUMNS, (n, x, r, h, s, h / s, x_over_n / (t + 1))):
                cols[c].append(v)
        out[label] = cols
    return out


def _kahan(terms) -> float:
    total = comp = 0.0
    for x in terms:
        y = x - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def snapshot(cols: dict[str, list], h: int) -> dict[str, float]:
    n, x, r = cols["N"][:h], cols["X"][:h], cols["R"][:h]
    return {
        "z": cols["H"][h - 1] / cols["S"][h - 1],
        "m_emp": _kahan(xi / ni for xi, ni in zip(x, n)) / h,
        "s_over_n": cols["S"][h - 1] / h,
        "reinf_mean": sum(r) / h,
        "reinf_sqmean": sum(ri * ri for ri in r) / h,
        "draw_mean": sum(n) / h,
        "draw_recipmean": _kahan(1 / ni for ni in n) / h,
    }
