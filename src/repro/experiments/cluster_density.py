"""Cluster-scope density: FaaSMem's quota reduction under bin-packing.

Extends Fig. 16's single-node estimate to the multi-node layer the
paper leaves as future work: replay one workload's deployment stream
against a tight fleet twice — once with original quotas, once with
each function's quota scaled down by its measured stable offload — and
compare admissions, rejections and committed capacity.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.cluster import deployment_events_from_run
from repro.core import FaaSMemPolicy
from repro.experiments.common import ExperimentResult, make_reuse_priors
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.faas.density import estimate_density
from repro.traces.azure import sample_function_trace
from repro.units import HOUR
from repro.workloads import get_profile


def run(
    applications: Sequence[str] = ("bert", "graph", "web"),
    duration: float = 0.5 * HOUR,
    n_nodes: int = 2,
    quotas_per_node: float = 2.0,
    seed: int = 31,
    platform_config: Optional[PlatformConfig] = None,
) -> ExperimentResult:
    """Measure fleet-wide admission with and without quota reduction."""
    result = ExperimentResult(
        experiment="cluster_density",
        title="Cluster-scope density from FaaSMem quota reduction",
    )
    # One platform run per application provides both the deployment
    # stream and the measured per-function stable offload.
    quota_scale: Dict[str, float] = {}
    platforms = {}
    for index, app in enumerate(applications):
        # Bursty load: surge cohorts put real pressure on the packer.
        trace = sample_function_trace("bursty", duration=duration, seed=seed + index)
        history = sample_function_trace(
            "bursty", duration=4 * duration, seed=seed + index
        )
        priors = make_reuse_priors(history, app)
        platform = ServerlessPlatform(FaaSMemPolicy(reuse_priors=priors), config=platform_config)
        platform.register_function(app, get_profile(app))
        platform.run_trace((t, app) for t in trace.timestamps)
        report = estimate_density(platform, app, window=duration)
        # density = quota / (quota - offload)  =>  scale = 1 / density.
        quota_scale[app] = max(0.05, 1.0 / report.improvement)
        platforms[app] = platform
    for app, platform in platforms.items():
        # A deliberately tight fleet: each node fits `quotas_per_node`
        # full-quota containers, so packing pressure is real.
        config = ClusterConfig(
            n_nodes=n_nodes,
            node_capacity_mib=get_profile(app).quota_mib * quotas_per_node,
        )
        original = Cluster(config).replay(
            deployment_events_from_run(platform, horizon=duration)
        )
        reduced = Cluster(config).replay(
            deployment_events_from_run(
                platform, quota_scale={app: quota_scale[app]}, horizon=duration
            )
        )
        result.rows.append(
            {
                "app": app,
                "quota_scale": round(quota_scale[app], 3),
                "admission_pct_original": round(100 * original.admission_ratio, 1),
                "admission_pct_faasmem": round(100 * reduced.admission_ratio, 1),
                "peak_committed_gib_original": round(
                    original.peak_committed_mib / 1024, 2
                ),
                "peak_committed_gib_faasmem": round(
                    reduced.peak_committed_mib / 1024, 2
                ),
            }
        )
    result.notes.append(
        "quota scaling = 1/density from the single-node estimate (§8.6); "
        "the cluster replay shows the same containers packing into less "
        "committed capacity, admitting more under pressure"
    )
    return result
