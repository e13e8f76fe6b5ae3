package atom

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"tcodm/internal/value"
)

// The value index maps (atom type, attribute, value, atom) to the atom, in
// the order-preserving key encoding, so equality and range predicates can
// prune candidate sets before states are materialized. Like the time
// index, it is version-grained and append-only: entries for superseded
// values remain until an index rebuild, and the executor re-evaluates the
// predicate on the materialized state, so stale entries cost time but
// never correctness.

// valueKey builds the index key for one (type, attr, value, atom) entry.
func valueKey(typeName, attr string, v value.V, id value.ID) []byte {
	k := valuePrefix(typeName, attr)
	k = value.AppendKey(k, v)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return append(k, b[:]...)
}

func valuePrefix(typeName, attr string) []byte {
	k := make([]byte, 0, len(typeName)+len(attr)+2)
	k = append(k, typeName...)
	k = append(k, 0)
	k = append(k, attr...)
	return append(k, 0)
}

// prefixUpperBound returns the smallest byte string greater than every
// string with the given prefix (nil when none exists).
func prefixUpperBound(prefix []byte) []byte {
	out := append([]byte(nil), prefix...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] < 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}

// noteValue records a value-index entry for a freshly written version.
func (m *Manager) noteValue(typeName, attr string, v value.V, id value.ID) error {
	if m.valueIdx == nil || v.IsNull() {
		return nil
	}
	return m.idxPut(m.valueIdx, valueKey(typeName, attr, v, id), uint64(id))
}

// ValueIndexScan streams candidate atom IDs whose (typeName, attr) history
// contains a value standing in relation op ("=", "<", "<=", ">", ">=") to
// lit. Candidates are a superset: callers must re-check the predicate on
// the state they materialize. Returns an error when the value index is
// disabled.
func (m *Manager) ValueIndexScan(typeName, attr, op string, lit value.V, fn func(id value.ID) (bool, error)) error {
	if m.valueIdx == nil {
		return fmt.Errorf("atom: value index not enabled")
	}
	prefix := valuePrefix(typeName, attr)
	litKey := value.AppendKey(append([]byte(nil), prefix...), lit)
	var start, end []byte
	switch op {
	case "=":
		start = litKey
		end = prefixUpperBound(litKey)
	case "<", "<=":
		start = prefix
		// "<" and "<=" share an upper bound of litKey's cap; for "<=" the
		// equal keys must be included, so extend past them.
		if op == "<" {
			end = litKey
		} else {
			end = prefixUpperBound(litKey)
		}
	case ">", ">=":
		end = prefixUpperBound(prefix)
		if op == ">" {
			start = prefixUpperBound(litKey)
		} else {
			start = litKey
		}
	default:
		return fmt.Errorf("atom: value index cannot serve operator %q", op)
	}
	return m.valueIdx.ScanRange(start, end, func(k []byte, v uint64) (bool, error) {
		if !bytes.HasPrefix(k, prefix) {
			return false, nil
		}
		return fn(value.ID(v))
	})
}

// HasValueIndex reports whether the value index is maintained.
func (m *Manager) HasValueIndex() bool { return m.valueIdx != nil }
