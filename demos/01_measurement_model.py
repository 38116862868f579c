#!/usr/bin/env python3
# Walk through the 2D measurement model: Y = P_Omega{A X A^T}.
#
# Shows sensing-matrix generation, undersampling masks, the
# forward/adjoint pair, the dense 1D (Kronecker) cross-check, and the
# fast-cosine-transform path for DCT measurements.

import numpy as np

from mixamp import checks, linops

side = 8
n = side * side
m = int(0.7 * n)

# Gaussian sensing matrix with entry variance 1/m, reproducible per seed
a = linops.gen_gaussian_sensing(side, m, seed=0)
print(f"A: {a.side}x{a.side}, entry variance {a.entries.var():.5f} "
      f"(target {1/m:.5f}), condition number {np.linalg.cond(a.entries):.1f}")

# the sampled index set Omega
mask = linops.gen_mask(side, m, seed=1)
print(f"Omega: {mask.m} of {n} entries sampled")

rng = np.random.default_rng(2)
x = rng.standard_normal((side, side))

# forward model and its adjoint
y = linops.forward(a, x, mask)
print(f"Y nonzeros: {int((y != 0).sum())} (= |Omega|)")

r = linops.mask_apply(mask, rng.standard_normal((side, side)))
lhs = (linops.forward(a, x, mask) * r).sum()
rhs = (x * linops.adjoint(a, r)).sum()
print(f"adjoint identity <Fx, r> = <x, F*r>: {lhs:.6f} vs {rhs:.6f}")

# the same measurement through the dense Kronecker model (the oracle of
# mixamp selfcheck, side <= 16 only): vec(Y) = P{(A kron A) vec(X)} with
# column-major vec
yvec = checks.kron_forward_oracle(a, x.flatten(order="F"), checks.vec_indices(mask))
err = np.abs(y.flatten(order="F") - yvec).max()
print(f"2D model vs dense Kronecker model: max abs diff {err:.2e}")

# DCT measurements have a fast-transform path
x64 = rng.standard_normal((64, 64))
mask64 = linops.gen_mask(64, int(0.7 * 64 * 64), seed=3)
fast = linops.dct_fast_forward(x64, mask64)
explicit = linops.forward(linops.dct_sensing(64), x64, mask64)
print(f"dct_fast_forward vs explicit DCT product: max abs diff "
      f"{np.abs(fast - explicit).max():.2e}")

# a solver's operator reads its form off the entries: the DCT's own entries
# at a power-of-two side take the fast transform, any other matrix the
# dense product
for name, sensing in (("DCT", linops.dct_sensing(64)),
                      ("Gaussian", linops.gen_gaussian_sensing(64, mask64.m, seed=4))):
    print(f"{name} sensing at side 64: fast form {linops.MeasurementOperator(sensing, mask64).fast}")
