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

Process-wide memos, each bounded as stated:

    finite_field.field_for        one field per degree e
    combinatorics.partition_count one count per n asked
    form_modules._block_table     per-block Arf tables, read off by
                                  formula: one per (kind, block, Jordan
                                  size), shared by every field
    form_modules._sp_label,       the label half of rational
    form_modules._orth_label      classification, keyed on (closed label,
                                  invariant) with no field; only keys that
                                  give a label are stored, at most the
                                  decorations of each closed label
    odd_split._odd_label          the odd canonical member, keyed on
                                  (chain length, complement label)
    oracle._group_memo            one generator list and group order per
                                  space (kind, n, e) asked; coadjoint_orbits
                                  hands its label array to the caller, and
                                  verify drops it after each check
    verify._census_memo           one census per space asked, each within
                                  classical.POINT_LIMIT keys

The label memos and the block tables hold only labels, blocks and
invariants of the ranks that inputs had, so the label universe up to the
largest rank labelled bounds them.  The `orbits` listings fill neither;
classify, normal-form, verify and the oracle census do, and the CLI caps
the rank of classify and normal-form at cli.LIST_CAP.
"""

__version__ = "0.1.0"
