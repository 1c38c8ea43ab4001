"""Names that perfbench's tracer binds and nothing else uses: the package
never imports this module, and ROADMAP item 3's ``benchmark`` change,
which updates the tracer, deletes it."""

from .subproblem import peg_callable, solve_model_vi  # noqa: F401

solve_tensor_subproblem = solve_model_vi
