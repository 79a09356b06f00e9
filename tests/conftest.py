"""Import the package before any test module loads numpy.

The package chooses its BLAS thread default when it is imported, and that
only takes effect if numpy is loaded afterwards, as in a command-line run.
Without this, the test process would time the operator builds under a
different BLAS configuration than the program runs with.
"""

import typicality_lab  # noqa: F401
