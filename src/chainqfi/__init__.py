"""Analysis chain for a spin-1/2 antiferromagnetic Heisenberg chain:
susceptibility model fits with an entanglement witness, the
finite-temperature dynamic susceptibility, quantum Fisher information
and its scaling law, plus two-spinon bounds and powder-to-1D conversion.
"""

__version__ = "0.1.0"
