"""Figure 8's first user, pinned to the text it prints.

The volume- and object-callback columns of ``user1`` over all four
networks (~0.4 s), so the cell's spec — hoard-profile volumes, the
``connect, disconnect, validate`` script and the timed last step — is
held to the figure ``repro figure validation`` prints.
"""

from repro.bench import validation

USER1 = """\
Figure 8: Validation Time Under Ideal Conditions (seconds)
User   Objects  Network   Volume CBs  Object CBs  Speedup
-----  -------  --------  ----------  ----------  -------
user1  328      Ethernet  1.35        1.57        1.2x   
user1  328      WaveLan   1.36        1.62        1.2x   
user1  328      ISDN      1.41        2.66        1.9x   
user1  328      Modem     1.79        10.25       5.7x   """


def test_user1_rows_are_pinned():
    results = validation.run_validation_comparison(
        profiles=validation.PROFILES[:1])
    assert validation.format_table(results).render() == USER1
