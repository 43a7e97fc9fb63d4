"""Toolkit for real-distinction of complex general linear group representations.

Submodules:
    exactnum          exact rationals, Gaussian rationals, exact real rank
    params            characters of C^x, parameter multisets, unitary block data
    distinction       the distinction decision procedures and witnesses
    derivatives       highest derivatives of monomial products, necessity test
    ktypes            highest-weight combinatorics and the minimal K-type oracle
    cosets            involutions, explicit coset representatives, orbit dimensions
    factors           local epsilon factors over parameters
    kernelnum         complex gamma, adaptive quadrature, kernel-integral checks
    equivalence_scan  the exhaustive formulation-equivalence scan
    selftest          the acceptance criteria, shared by pytest and the CLI
    errors            the exception types behind the CLI's exit codes
    cli               batch command-line interface
"""

__version__ = "0.1.0"
