"""Click-log records for the ClickLog application (Section 2.1).

Each record is an IPv4 address (a click on an advertisement). Geolocation
is simulated exactly as in the paper ("we simulate the geolocation function
to avoid external API calls"): the top 6 bits of the address select one of
64 regions, so region membership is a pure function of the IP and the
generator can impose any Zipf skew by picking regions before low bits.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional

from repro.sim.rand import rng_from
from repro.workloads.zipf import zipf_weights

#: The evaluation's region count (imbalance ladder 64**s, see zipf.py).
REGION_COUNT = 64

_REGION_BITS = 6
_LOW_BITS = 32 - _REGION_BITS

_NAMED = [
    "usa", "china", "india", "brazil", "uk", "germany", "france", "japan",
    "russia", "mexico", "canada", "italy", "spain", "korea", "australia",
    "netherlands",
]


def region_name(index: int) -> str:
    """Human-readable region label for an index in [0, 64)."""
    if not 0 <= index < REGION_COUNT:
        raise ValueError(f"region index {index} out of range")
    if index < len(_NAMED):
        return _NAMED[index]
    return f"region{index:02d}"


def region_of_ip(ip: int) -> int:
    """The region index encoded in an IPv4 address (top 6 bits)."""
    return (ip >> _LOW_BITS) & (REGION_COUNT - 1)


def group_by_region(ips: Iterable[int]) -> Dict[int, List[int]]:
    """``ips`` grouped by :func:`region_of_ip`, in arrival order per region.

    The batch form of the geolocation function: one call per chunk of
    clicks where ``geolocate`` is one per click.
    """
    groups: Dict[int, List[int]] = defaultdict(list)
    shift, mask = _LOW_BITS, REGION_COUNT - 1
    for ip in ips:
        groups[(ip >> shift) & mask].append(ip)
    return groups


def geolocate(ip: int) -> str:
    """The simulated geolocation function used by ClickLog tasks."""
    return region_name(region_of_ip(ip))


def generate_clicklog(
    n_records: int,
    skew: float,
    seed: int = 0,
    unique_per_region: Optional[int] = None,
) -> Iterator[int]:
    """Yield ``n_records`` IPv4 addresses with Zipf(``skew``) region weights.

    ``unique_per_region`` caps the distinct IPs within a region (default:
    1024), so the distinct-count output is interesting: many clicks repeat
    addresses, which is what ClickLog's bitset de-duplicates.
    """
    if n_records < 0:
        raise ValueError(f"negative record count {n_records}")
    weights = zipf_weights(REGION_COUNT, skew)
    unique = unique_per_region or 1024
    rng = rng_from("clicklog", seed, skew)
    cumulative: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cumulative.append(acc)
    for _ in range(n_records):
        r = rng.random()
        region = _bisect(cumulative, r)
        low = rng.randrange(unique)
        yield (region << _LOW_BITS) | low


def generate_stream_clicklog(
    n_records: int,
    skew: float,
    seed: int = 0,
    windows: int = 4,
    unique_per_region: Optional[int] = None,
) -> Iterator[tuple]:
    """Yield ``(window, ip)`` pairs whose hot regions *shift* mid-stream.

    A shifting-skew ingest: records arrive in ingest order, bucketed
    into ``windows`` equal time windows, and each window draws from the
    same Zipf(``skew``) region weights under a *fresh seeded permutation*
    of the region ranking — window 0's hottest region is (almost surely)
    not window 1's, so the skewed family moves from window to window.

    Deterministic in ``(seed, skew, windows)``; window boundaries split
    ``n_records`` as evenly as integer division allows (earlier windows
    take the remainder).
    """
    if n_records < 0:
        raise ValueError(f"negative record count {n_records}")
    if windows < 1:
        raise ValueError(f"windows must be >= 1, got {windows}")
    weights = zipf_weights(REGION_COUNT, skew)
    unique = unique_per_region or 1024
    base, extra = divmod(n_records, windows)
    for window in range(windows):
        rng = rng_from("clicklog-stream", seed, skew, windows, window)
        # A fresh Fisher-Yates ranking per window: the Zipf weight ladder
        # is constant, but *which* region sits on each rung rotates.
        ranking = list(range(REGION_COUNT))
        for i in range(REGION_COUNT - 1, 0, -1):
            j = rng.randrange(i + 1)
            ranking[i], ranking[j] = ranking[j], ranking[i]
        cumulative: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w
            cumulative.append(acc)
        count = base + (1 if window < extra else 0)
        for _ in range(count):
            r = rng.random()
            region = ranking[_bisect(cumulative, r)]
            low = rng.randrange(unique)
            yield window, (region << _LOW_BITS) | low


def exact_windowed_counts(records) -> dict:
    """Reference for the streaming scenario: (window, region) -> distinct IPs."""
    seen: dict = {}
    for window, ip in records:
        seen.setdefault((window, geolocate(ip)), set()).add(ip)
    return {key: len(ips) for key, ips in seen.items()}


def _bisect(cumulative: List[float], value: float) -> int:
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < value:
            lo = mid + 1
        else:
            hi = mid
    return lo


def exact_distinct_counts(records) -> dict:
    """Reference answer for ClickLog: region name -> distinct IP count."""
    seen: dict = {}
    for ip in records:
        seen.setdefault(geolocate(ip), set()).add(ip)
    return {region: len(ips) for region, ips in seen.items()}
