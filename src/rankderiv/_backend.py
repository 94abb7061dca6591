"""The reference kernels and the backend name.

Prime-field matrices run on packed rows or on the generic elimination of
``matrix.py``; there is one backend, and ``BACKEND`` names it so that
benchmark results record what they measured.  ``kernels`` is the pure
reference module ``_kernels_py``, which no library path calls.
"""

from rankderiv import _kernels_py as kernels

BACKEND = "pure"
