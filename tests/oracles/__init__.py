"""Scalar reference implementations the production kernels are tested against."""
