"""mixamp: 2D sparse-mixture separation from compressed measurements.

A signal X = Xa + Xb is observed through Y = P_Omega{A X A^T}; the two
components are recovered jointly by a dual-denoiser approximate
message-passing iteration (`solver`), with a proximal-gradient
comparator (`baseline`), pluggable denoisers (`denoise`), the
measurement model (`linops`), and phantoms/metrics/IO (`data`).
The modules are the API: import them (`from mixamp import linops`),
not names from the package.
"""
