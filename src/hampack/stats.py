"""Statistical probes for the random objects the construction relies on.

Covers cycle counts of uniform permutations (sampled and exhaustive, with
exact reference moments), the designated-vertex weight statistic, and the
gap between the two smallest degrees of the first-round bipartite graph.
Exact references use rational arithmetic; sampled estimates use the seeded
streams so every number here is reproducible.
"""

import itertools
import math
from fractions import Fraction

from .errors import Failure, InvalidInputError, SizeError
from .exposure import derive_parameters, first_exposure
from .pipeline import generate
from .rng import SeededRng, streams

__all__ = [
    "harmonic_number",
    "exact_power_moment",
    "sigma_variance",
    "permutation_cycle_stats",
    "single_matching_moment_exhaustive",
    "designation_moment_estimate",
    "degree_gap_probe",
]

MAX_EXHAUSTIVE_N = 8


def harmonic_number(n: int, power: int = 1) -> float:
    """Generalized harmonic number sum_{k<=n} k^-power."""
    if n < 0:
        raise InvalidInputError(f"need n >= 0, got {n}")
    return math.fsum(1.0 / k**power for k in range(1, n + 1))


def exact_power_moment(n: int, k: int) -> Fraction:
    """E[k^sigma] for the cycle count sigma of a uniform n-permutation.

    Equals the rising factorial k(k+1)...(k+n-1) divided by n!.
    """
    if n < 0 or k < 1:
        raise InvalidInputError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    num = 1
    for i in range(n):
        num *= k + i
    return Fraction(num, math.factorial(n))


def sigma_variance(n: int) -> float:
    """Var(sigma) = H_n - H_n^(2) for a uniform n-permutation."""
    return harmonic_number(n) - harmonic_number(n, power=2)


def _count_cycles(image) -> int:
    n = len(image)
    seen = bytearray(n + 1)
    count = 0
    for start in range(1, n + 1):
        if seen[start]:
            continue
        count += 1
        v = start
        while not seen[v]:
            seen[v] = 1
            v = image[v - 1]
    return count


def permutation_cycle_stats(n: int, samples: int, seed: int,
                            exhaustive: bool = False) -> dict:
    """Distribution summary of sigma and 2^sigma for uniform permutations.

    Sampled mode draws from the permutation stream; exhaustive mode sweeps
    all n! permutations (n <= 8) and reports exact means alongside.  The
    2^sigma mean is accumulated in exact integers before the final division
    so large sigma values cannot overflow.
    """
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got {n}")
    threshold = 4.0 * math.log(n)

    if exhaustive:
        if n > MAX_EXHAUSTIVE_N:
            raise SizeError(f"exhaustive sweep capped at n={MAX_EXHAUSTIVE_N}, got {n}")
        count = math.factorial(n)
        images = itertools.permutations(range(1, n + 1))
    else:
        if samples < 1:
            raise InvalidInputError(f"need samples >= 1, got {samples}")
        rng = SeededRng(seed, "permutation")
        count = samples
        images = (rng.uniform_permutation(n) for _ in range(samples))

    sum_sigma = sum_sigma_sq = sum_two = tail = 0
    for image in images:
        s = _count_cycles(image)
        sum_sigma += s
        sum_sigma_sq += s * s
        sum_two += 1 << s
        if s >= threshold:
            tail += 1

    mean = sum_sigma / count
    out = {
        "n": n,
        "samples": count,
        "exhaustive": exhaustive,
        "mean_sigma": mean,
        "var_sigma": sum_sigma_sq / count - mean * mean,
        "mean_two_power": sum_two / count,
        "tail_threshold": threshold,
        "tail_count": tail,
        "tail_freq": tail / count,
        "reference_mean": harmonic_number(n),
        "reference_two_power": float(exact_power_moment(n, 2)),
    }
    if exhaustive:
        out["mean_sigma_exact"] = str(Fraction(sum_sigma, count))
        out["mean_two_power_exact"] = str(Fraction(sum_two, count))
    return out


def single_matching_moment_exhaustive(n: int, matching) -> Fraction:
    """Exact mean of the cubed designation weight for one fixed matching.

    Averages over every permutation and every vertex choice the cube of
    1/(length of the cycle through the chosen vertex) in the one-factor
    induced by composing the matching with the permutation.
    """
    if n > MAX_EXHAUSTIVE_N:
        raise SizeError(f"exhaustive sweep capped at n={MAX_EXHAUSTIVE_N}, got {n}")
    if len(matching) != n:
        raise InvalidInputError(f"matching has arity {len(matching)}, expected {n}")
    total = Fraction(0)
    for image in itertools.permutations(range(1, n + 1)):
        composed = tuple(image[matching[x - 1] - 1] for x in range(1, n + 1))
        for w in range(1, n + 1):
            length = 1
            v = composed[w - 1]
            while v != w:
                length += 1
                v = composed[v - 1]
            total += Fraction(1, length**3)
    return total / (math.factorial(n) * n)


def designation_moment_estimate(n: int, p: int | float, trials: int,
                                seed: int) -> dict:
    """Sampled mean of the cubed designation weight over fresh phase-one runs.

    Each trial builds the bipartite rounds, extracts the matching family,
    draws a permutation and a uniform probe vertex, and evaluates
    (sum over factors of 1/cycle-length at the probe)^3.  Trials whose
    matching family cannot be completed are counted as skipped.
    """
    if trials < 1:
        raise InvalidInputError(f"need trials >= 1, got {trials}")
    params = derive_parameters(n, p, mode="practical")
    completed = 0
    skipped = 0
    acc = 0.0
    for t in range(trials):
        rngs = streams(seed + t)
        gen = generate(n, params, rngs)
        if isinstance(gen.family, Failure):
            skipped += 1
            continue
        w = int(rngs["designation"].integers(1, n + 1))
        weight = 0.0
        for factor in gen.factors:
            weight += 1.0 / len(factor.cycles[factor.vertex_to_cycle[w]])
        acc += weight**3
        completed += 1
    estimate = acc / completed if completed else 0.0
    reference = p * math.log(n) ** 3
    return {
        "n": n,
        "p": p,
        "trials": trials,
        "completed": completed,
        "skipped": skipped,
        "estimate": estimate,
        "reference": reference,
        "ratio": estimate / reference if reference > 0 else None,
    }


def degree_gap_probe(n: int, p0: float, trials: int, seed: int) -> dict:
    """Gap between the two smallest degrees across both sides of round one.

    For each trial the 2n degrees of a fresh first-round bipartite graph
    are pooled and sorted; the probe records the difference between the
    second smallest and the smallest, against the reference scale
    sqrt(n*p0)/ln(n).
    """
    if trials < 1:
        raise InvalidInputError(f"need trials >= 1, got {trials}")
    if not 0.0 <= p0 <= 1.0:
        raise InvalidInputError(f"need 0 <= p0 <= 1, got {p0}")
    reference = math.sqrt(n * p0) / math.log(n) if n > 1 else 0.0
    histogram: dict[int, int] = {}
    total_gap = 0
    at_least = 0
    for t in range(trials):
        rng = SeededRng(seed + t, "phase1")
        b_prime = first_exposure(n, p0, rng)
        degrees = sorted(
            [len(b_prime.x_adj[v]) for v in range(1, n + 1)]
            + [len(b_prime.y_adj[v]) for v in range(1, n + 1)]
        )
        gap = degrees[1] - degrees[0]
        histogram[gap] = histogram.get(gap, 0) + 1
        total_gap += gap
        if gap >= reference:
            at_least += 1
    return {
        "n": n,
        "p0": p0,
        "trials": trials,
        "mean_gap": total_gap / trials,
        "frac_at_least_reference": at_least / trials,
        "reference": reference,
        "histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }
