"""Attribution-gated tabular classification experiments.

Pipeline: gradient-boosted trees, exact per-row attribution of their margins,
kernel k-means over the attribution vectors, and a small network whose input
gate is driven by the attributions plus the cluster labels. The pipeline
module runs the full cross-validated experiment; the cli module exposes it as
a command-line tool.
"""

__version__ = "0.1.0"
