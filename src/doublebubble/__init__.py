"""Double bubbles at small scale in Riemannian metrics: exact model geometry,
curvature expansions, a measurement oracle and a configuration locator."""

__version__ = "0.1.0"
