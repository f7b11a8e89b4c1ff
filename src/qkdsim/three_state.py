"""Three-state/three-filter key distribution with built-in tamper evidence.

The sender uses only the polarizations {0°, 45°, 90°}; the receiver filters
uniformly over the same three angles.  After the receiver announces his
filter sequence, the sender confirms every position whose (sent, filter)
pair has a deterministic reading — 5 of the 9 pairs.  Confirmed positions
split by filter:

* rectilinear filter (0° or 90°): the receiver's detect-or-erase reading
  identifies the sent state exactly, yielding a secret key bit (4/9 of all
  positions on average);
* diagonal filter (45°): the sent state must have been the 45° photon, so
  the position carries no secret — but its reading is forced to be a
  detection, and any erasure there is hard evidence that the channel was
  disturbed (1/9 of positions).

Those diagonal positions therefore double as authentication: tampering
shows up without any further key comparison, which is the whole point of
the design.  The session itself runs on the shared engine
(:func:`qkdsim.session.run_session` with :data:`qkdsim.photons.THREE_STATE`);
this module turns the authentication positions into the report's tamper
block.
"""

from __future__ import annotations

from typing import Any


def tamper_report(checked: int, failures: int) -> dict[str, Any]:
    """The report's tamper block: ``checked`` auth positions, ``failures`` of them erasures.

    ``model_certification`` is the idealized detection-confidence curve
    1 - 3^(-checked): it treats every wrong-filter interception at an
    authentication position as certain to alarm, so it is an upper model,
    not a prediction for any concrete resend policy.  The simulator reports
    it alongside the observed behaviour rather than asserting it.
    """
    return {
        "method": "auth_positions",
        "auth_checked": checked,
        "auth_failures": failures,
        "tamper_detected": failures > 0,
        "model_certification": 1.0 - 3.0 ** (-checked),
    }
