"""Nilpotent coadjoint orbits of classical groups in characteristic 2.

Submodules:

    finite_field    GF(2^e) arithmetic on int-encoded elements
    linalg          dense matrices over GF(2^e) (int row lists, packed rows),
                    quadratic-form values
    combinatorics   partition-pair labels, block and odd label types with
                    their text and JSON forms, counts, rational fanout
    classical       symplectic / orthogonal Lie algebras, Borels, dual spaces
    form_modules    form modules, normal forms, closed-field classification
    isometry        backtracking isometry search between formed spaces,
                    the reference oracle of verify and the tests
    odd_split       odd orthogonal splitting into chain + symplectic part
    centralizers    centralizer dimensions, component ranks, group orders
    oracle          brute-force orbit enumeration over GF(2) and GF(4)
    verify          acceptance checks runnable from the CLI or tests
    cli             command line front end

Importing the package loads no submodule.  Only oracle (the exhaustive
census) and verify import numpy; every other module is plain Python, and
only verify imports isometry.
"""

__version__ = "0.1.0"
