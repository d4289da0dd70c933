"""Brokerage policies: which site should run a job?

PanDA's brokerage weighs data availability, queue depth and site capability.
Three stylised policies cover the interesting regimes for the examples and
benchmarks:

* :class:`RandomBroker` — capacity-weighted random choice (a lower bound);
* :class:`LeastLoadedBroker` — pick the site with the most free cores,
  breaking ties by HS23 power (a queue-depth heuristic);
* :class:`DataLocalityBroker` — prefer sites "hosting" the job's project
  (a deterministic project→site affinity standing in for replica placement),
  falling back to the least-loaded choice when the preferred sites are full.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.scheduler.cluster import GridCluster
from repro.scheduler.jobs import SimulatedJob
from repro.utils.rng import SeedLike, as_rng, derive_seed


class Broker:
    """Interface: pick a site name for a job, or ``None`` to keep it queued.

    Contract: a broker must only return a site whose ``free_cores`` is at
    least ``job.cores`` (all built-in policies do).  The simulator's
    free-slot accounting relies on this to skip brokerage calls for jobs no
    site could host; a broker violating it would previously have crashed the
    allocation step anyway.
    """

    name = "broker"

    def select_site(self, job: SimulatedJob, cluster: GridCluster) -> Optional[str]:
        raise NotImplementedError


class RandomBroker(Broker):
    """Capacity-weighted random site choice among sites with room."""

    name = "random"

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = as_rng(seed)

    def select_site(self, job: SimulatedJob, cluster: GridCluster) -> Optional[str]:
        eligible = [s for s in cluster.sites.values() if s.free_cores >= job.cores]
        if not eligible:
            return None
        weights = np.array([s.capacity for s in eligible], dtype=np.float64)
        weights /= weights.sum()
        choice = self._rng.choice(len(eligible), p=weights)
        return eligible[int(choice)].site.name


class LeastLoadedBroker(Broker):
    """Send the job to the site with the most free cores (ties: higher HS23).

    O(log sites) per placement: the cluster's :class:`~repro.scheduler.cluster.
    FreeCoreIndex` maintains the running maximum of ``(free_cores, hs23)``, so
    selection is a heap peek instead of a scan of every site.  The selected
    site is identical to the historical full scan: the site maximising
    ``(free_cores, hs23)`` over the eligible subset is exactly the global
    maximum whenever that maximum has enough free cores, and no site is
    eligible otherwise.  Free-core ties resolve by HS23 and then by the
    stable catalog site order — not by dict iteration order — so placements
    are reproducible.
    """

    name = "least_loaded"

    def select_site(self, job: SimulatedJob, cluster: GridCluster) -> Optional[str]:
        best = cluster.best_site()
        if best is None or best.free_cores < job.cores:
            return None
        return best.site.name


class DataLocalityBroker(Broker):
    """Prefer sites that host the job's project; fall back to least-loaded."""

    name = "data_locality"

    def __init__(self, cluster: GridCluster, *, replicas_per_project: int = 3, seed: SeedLike = None):
        self._rng = as_rng(seed)
        self._fallback = LeastLoadedBroker()
        self.replicas_per_project = int(replicas_per_project)
        self._hosting: Dict[str, List[str]] = {}
        self._site_names = list(cluster.sites.keys())

    def _hosts_of(self, project: str) -> List[str]:
        if project not in self._hosting:
            # Deterministic pseudo-random replica placement per project.  The
            # seed derives from a stable content hash (not Python's salted
            # ``hash``), so the placement is reproducible across processes.
            rng = np.random.default_rng(derive_seed(None, "replica", project))
            k = min(self.replicas_per_project, len(self._site_names))
            chosen = rng.choice(len(self._site_names), size=k, replace=False)
            self._hosting[project] = [self._site_names[i] for i in chosen]
        return self._hosting[project]

    def select_site(self, job: SimulatedJob, cluster: GridCluster) -> Optional[str]:
        # Only the job's replica subset (O(replicas_per_project) sites) is
        # scanned; ties break on the fixed replica-list order.  The full-site
        # fallback goes through the O(log sites) least-loaded index.
        hosts = self._hosts_of(job.project)
        candidates = [cluster[name] for name in hosts if cluster[name].free_cores >= job.cores]
        if candidates:
            best = max(candidates, key=lambda s: (s.free_cores, s.site.hs23_per_core))
            return best.site.name
        return self._fallback.select_site(job, cluster)


def make_broker(name: str, cluster: GridCluster, *, seed: SeedLike = None) -> Broker:
    """Factory used by the experiments CLI."""
    key = name.strip().lower()
    if key == "random":
        return RandomBroker(seed=seed)
    if key in ("least_loaded", "leastloaded"):
        return LeastLoadedBroker()
    if key in ("data_locality", "datalocality", "locality"):
        return DataLocalityBroker(cluster, seed=seed)
    raise ValueError(f"unknown broker {name!r}; options: random, least_loaded, data_locality")
