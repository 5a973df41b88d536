"""Result tables shaped like the paper's figures."""


def fmt_bytes(nbytes):
    if nbytes >= 1 << 20:
        return "%.1f MB" % (nbytes / float(1 << 20))
    if nbytes >= 1 << 10:
        return "%.0f KB" % (nbytes / float(1 << 10))
    return "%d B" % nbytes


class Table:
    """A simple aligned text table with a title."""

    def __init__(self, title, columns):
        self.title = title
        self.columns = list(columns)
        self.rows = []

    def add(self, *cells):
        if len(cells) != len(self.columns):
            raise ValueError("expected %d cells, got %d"
                             % (len(self.columns), len(cells)))
        self.rows.append([str(cell) for cell in cells])

    def render(self):
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title,
                 "  ".join(c.ljust(widths[i])
                           for i, c in enumerate(self.columns)),
                 "  ".join("-" * w for w in widths)]
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        return "\n".join(lines)

    def show(self):
        print()
        print(self.render())
