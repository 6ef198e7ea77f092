"""Semiparametric one-step estimation fusing aligned and weakly aligned
data sources with parametric conditional-density shifts.

The package root exports nothing; import each name from its module:
`weakfuse.model` (`Dataset`, `FusionDesign`), `weakfuse.weights`
(`WeightSpec`), `weakfuse.gradients` (`EstimandSpec`), `weakfuse.estimator`
(`one_step_estimate`, `EstimatorVariant`), `weakfuse.simulation`
(`run_monte_carlo`) and `weakfuse.cli` (`main`, the `weakfuse` command)."""

__version__ = "0.1.0"
