"""Size limits on what the command line and the file readers accept, and the
default truncation order. Every limit is checked before the work it bounds."""

#: Truncation order used when none is requested explicitly.
DEFAULT_ORDER = 16

#: Largest truncation order the command line and the wheel data reader
#: accept, and so the largest z exponent an expression may carry (a z-degree
#: above the order is rejected anyway). On a 2-vCPU Xeon host with Python
#: 3.11, at order 256 and first call included: ``lmo_wheel_data`` and
#: ``nabla_from_lmo_wheel_data`` take 0.02-0.05 s, ``wheels_from_series``
#: 0.02 s on a degree-8 series and 0.1 s on a dense one with unrelated
#: denominators, and ``mmr_series`` 0.016 s on the trefoil and 0.03 s at
#: genus 3 (it multiplies c(h) only into the constant term of nabla).
MAX_ORDER = 256

#: Most decimal digits a torsion order may have: ``lmo --tor``,
#: ``roundtrip --tor`` and the ``"h1_order"`` of a wheel data file must be
#: below 10^MAX_TOR_DIGITS. Degree-2n data scales by r^(2n), so the cost
#: grows with the digits of r. On a 2-vCPU Xeon host with Python 3.11, at
#: order 256 and a 64-digit r, ``lmo --invert`` takes 4-5.5 s and
#: ``lmo --nabla`` 0.2-0.3 s (both end in exit 1, a number too long to
#: print); with no limit, a 200-digit ``"h1_order"`` took 30 s and a
#: 500-digit one over 60 s.
MAX_TOR_DIGITS = 64

#: Largest count k·r of mixed linking pairs (k surgery, r residual components)
#: ``aarhus-struts --route wick|both`` accepts; k = 0 counts as k = 1, since
#: the r(r+1)/2 residual struts are still expanded. On a 2-vCPU Xeon host with
#: Python 3.11, ``--route wick`` on dense links takes 8.7 s at k1 r600, 2.4 s
#: at k24 r25 and 6.3 s at k150 r4; at k·r = 900, 5.2 s at k30 r30 but 20 s
#: at k1 r900.
MAX_WICK_PAIRS = 600

#: Most labels (surgery and residual components) a linking matrix file may
#: list; the count is checked before any entry is converted. ``surgery`` and
#: ``aarhus-struts --route schur`` run one elimination pass over the matrix.
#: On a 2-vCPU Xeon host with Python 3.11, in-process on ``bench/workloads.py``
#: ``framed_link(random.Random(k), k, 2)`` files, reading included, ``surgery``
#: took 3.8 / 6.4-7.7 / 9.4-11.8 / 12.5 / 19.4 s at k400 / k500 / k550 / k600 /
#: k700 and ``--route schur`` 4.1 / 6.1-6.4 / 10.8-13 / 11.9 / 20.4 s.
MAX_LINK_LABELS = 550
