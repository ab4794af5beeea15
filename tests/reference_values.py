"""Frozen oracle outputs for the two canonical toy instances.

Each value was produced by an independent long-run reference computation,
noted next to the constant, and is pinned here so regressions show up as
plain numeric drift rather than silent re-baselining.
"""

# Canonical toy instances (m=4 ring, n=3, d=5, seed 7, scale 1.0).
TOY_M, TOY_N, TOY_D = 4, 3, 5
TOY_SEED = 7
TOY_P2_THETA = 0.5
TOY_P1_THETA = 3.0

# sha256 over the header and raw array bytes of the generated instances.
CHECKSUM_P2 = "fa66d067a98d6d1ee58593ceac2d6d593eac246c6ed6b72947ee36981e665d9f"
CHECKSUM_P1 = "160e5cdaf786c606c4c7267c99e12cc94d4cf263338cfaf5345176eaf452b6b5"

# Unnormalized Laplacian spectrum of the 4-cycle.
RING4_EIGS = (0.0, 2.0, 2.0, 4.0)

# Optimal value of the hard-constrained dual on the p=1 toy.  Reference:
# 100k iterations of the accelerated solver, cross-checked by a 50k-iteration
# randomized coordinate run; the two agree to 6e-8 and the lower of the two
# is recorded.
DUAL_OPT_P1_BOX = 17.320888892851283
DUAL_OPT_P1_TOL = 5e-7

# Optimal value of the penalty-regularized dual on the p=2 toy at the
# default weight nu = 5e-5.  Reference: 400k accelerated iterations with a
# tail decrement below 2e-9 per thousand iterations.
PENALIZED_DUAL_OPT_P2 = -2.596532388289077
PENALIZED_DUAL_OPT_P2_TOL = 1e-6

# Primal optimum of the p=2 toy, single-simplex form.  Two independent
# references agree to 1.2e-11: a 1e6-iteration projected subgradient run
# (-0.681608174073316) and recovery from a ball-constrained dual solve
# (-0.681608174085027).
PRIMAL_OPT_P2 = -0.6816081741
PRIMAL_OPT_P2_TOL = 1e-8

# Primal optimum of the p=1 toy.  Reference: negated dual optimum divided
# by m (strong duality), -4.330222223212821; a 2e5-iteration projected
# subgradient run lands within 5e-6 of it.
PRIMAL_OPT_P1 = -4.330222223212821
PRIMAL_OPT_P1_TOL = 2e-5

# SHA-256 of trace.csv from `entrodual solve` at --trace-every 1, keyed by
# (config file, extra flags).  A change that must not move any trajectory
# (iterates, recorded values, certificates) leaves these bytes alone.  The
# digests depend on NumPy's exp and log rounding; on a platform that rounds
# them differently, take them again at a commit whose traces are trusted.
# The 64 x 20 x 50 ring applies W densely and its blocks by batched BLAS;
# the 512 x 2 x 8 ring applies W from its neighbour slots and its blocks by
# einsum; the toy takes the dense W and einsum.
RING64 = ("--m", "64", "--n", "20", "--d", "50", "--max-iter", "60")
RING512 = ("--m", "512", "--n", "2", "--d", "8", "--max-iter", "60")
TRACE_SHA256 = {
    ("configs/toy.cfg", ()):
        "a49cb2e786609f20a116392f4119c6ef1ebf740402c1a988247bafd6fcd64469",
    ("configs/toy_p1.cfg", ()):
        "a78f2faddfac2d1a503ed6c18b910272726314c86d8ef19daf6db2c1fdbbbbcd",
    ("configs/toy_p1.cfg", ("--solver", "subgradient")):
        "f500db37e1e01a4c1485001b105d0df5cee091cd9ad245e8f9f80af257259e22",
    ("configs/toy_p1.cfg", ("--solver", "acrcd", "--solver-seed", "3")):
        "dececf65685f767c3bd838558d1f96bd8407ac6551e9fdcfe9c9a7b04f65a6fc",
    ("configs/toy_p1.cfg", ("--solver", "acrcd", "--solver-seed", "3", *RING64)):
        "f8ef164679ed7048ed792e1e8bb7ce744c4f3fd8c6a80aff8df8d522eb7dec61",
    ("configs/toy_p1.cfg", ("--solver", "acrcd", "--solver-seed", "3", *RING512)):
        "0e13f8d7979268215603b36c46876368a20d26de0cef19522b299f2a4a84754f",
    ("configs/toy_p1.cfg", RING64):
        "c6c510b76ed8ef2d3ec3762559141a0a5e414eb7edbea222c7055a57e1492443",
    ("configs/toy_p1.cfg", RING512):
        "63421a11ce8e83b7f588482963cdfaa39e09b37b8ebb7816d107ef1d2fe2cb35",
    ("configs/toy.cfg", RING64):
        "aec217ac0cc115ebf0b58ad752171a40e80a5c2ba19ae7fd11426848ee9d1327",
    ("configs/toy.cfg", RING512):
        "041723a58da1e488cf63ff0c1d4328d2bcfe6635b05b92fe71cfea7ce8f56e10",
}

# SHA-256 of the running pair's [z | P] and [s | Q] buffers, concatenated,
# after the last step of the ACRCD runs in TRACE_SHA256 (same keys).  These
# pin the steps apart from the trace: a change to what a row certifies moves
# the trace digest but not these.
ITERATE_SHA256 = {
    ("configs/toy_p1.cfg", ("--solver", "acrcd", "--solver-seed", "3")):
        "a062a25997e812597ed53e265eea5ad9972d9a12c02c72c91516aef561c2e395",
    ("configs/toy_p1.cfg", ("--solver", "acrcd", "--solver-seed", "3", *RING64)):
        "0c70fe2c6aa80ef33232ef2e034e1ee85ebd09e8f8a9e0722f2e1dd565053dc5",
    ("configs/toy_p1.cfg", ("--solver", "acrcd", "--solver-seed", "3", *RING512)):
        "c5d2f769b2295dfff4c47e27dea4275e1810d826ecd5a8dfd56be3cc2649e67a",
}

# SHA-256 of the iterates' [z | s | T] buffers q and u, concatenated, after
# the last step of the STM runs in TRACE_SHA256 (same keys).  Like
# ITERATE_SHA256 for ACRCD, these pin the steps apart from the trace.
STM_ITERATE_SHA256 = {
    ("configs/toy.cfg", ()):
        "a867386c785b365f137041d6ea74b922fe51be902925610cb350e16062fbf4b9",
    ("configs/toy.cfg", RING64):
        "e4da6d0af3baacef58ace98b5e92586357a701469600fe8bf89fdff86d2cf53d",
    ("configs/toy.cfg", RING512):
        "056331ec22c64571eebefcf161a8115966b94578bf18f8e6f9107dd54a155f92",
    ("configs/toy_p1.cfg", ()):
        "b3f37dc31842f5b9e751188befff0ab14992a042d8e7d892ee5d5a7992e3dc65",
    ("configs/toy_p1.cfg", RING64):
        "55f5b351db0e4778a851137315663191592c2bcd9aa5f9bb27013bb42c7859cf",
    ("configs/toy_p1.cfg", RING512):
        "3d79b15583c938931d2c25414285f4388711ed03f315911bf0dc76eb7fbcd147",
}
