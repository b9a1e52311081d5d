"""Nilpotent coadjoint orbits of classical groups in characteristic 2.

Submodules:

    finite_field    GF(2^e) arithmetic on int-encoded elements
    linalg          dense matrices over GF(2^e) (numpy uint8 + lookup tables)
    combinatorics   partition-pair labels, block and odd label types with
                    their text and JSON forms, counts, rational fanout
    classical       symplectic / orthogonal Lie algebras, Borels, dual spaces
    form_modules    form modules, normal forms, closed-field classification
    isometry        backtracking isometry search between formed spaces
    odd_split       odd orthogonal splitting into chain + symplectic part
    centralizers    centralizer dimensions, component ranks, group orders
    oracle          brute-force orbit enumeration over GF(2) and GF(4)
    verify          acceptance checks runnable from the CLI or tests
    cli             command line front end

Importing the package loads no submodule, and the label layer
(combinatorics, centralizers) needs no numpy.
"""

__version__ = "0.1.0"
