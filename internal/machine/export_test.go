package machine

import "unsafe"

// bytes is the size of the leaves the table holds.
func (t *seenTab) bytes() int {
	n := 0
	for _, c := range t.chunks {
		n += len(c)
	}
	return n
}

// bytes is the size of the leaves the table holds.
func (t *dirTab) bytes() int {
	n := 0
	for _, c := range t.chunks {
		n += len(c) * int(unsafe.Sizeof(dirEntry{}))
	}
	return n
}

// bytes is the size of the leaves the cache has made: a 4-byte tag, a
// state byte and a rank byte per line.
func (c *l2Cache) bytes() int {
	n := 0
	for _, lf := range c.leaves {
		if lf != nil {
			n += len(lf.tags)*int(unsafe.Sizeof(lf.tags[0])) + len(lf.state) + len(lf.order)
		}
	}
	return n
}

// TableBytes reports the bytes m holds in miss-history leaves (every
// node's L1 and L2 seen tables), in directory leaves and in secondary-
// cache leaves (every node's), for the footprint pins of tests outside
// the package.
func TableBytes(m *Machine) (seen, dir, l2 int) {
	for _, nd := range m.nodes {
		seen += nd.l1.seen.bytes() + nd.l2.seen.bytes()
		l2 += nd.l2.bytes()
	}
	return seen, m.dir.bytes(), l2
}
