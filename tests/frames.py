"""Weekly frames the tests build: one column from W0, and a panel of columns."""

import numpy as np

from flunowcast.timeseries import WeekStamp, Weekly

W0 = WeekStamp(2009, 1)


def ws(values, label=""):
    """A one-column frame of `values` from W0."""
    return Weekly(W0, (label,), [[v] for v in values])


def panel_of(columns):
    labels, values = zip(*columns)
    return Weekly(W0, labels, np.column_stack(values))
