package substrate

import "slices"

// Table is a name-keyed collection kept in name order — a host's instances,
// a controller's VMs — so that reads which must be deterministic (the float
// sum in Allocated, the inventory) walk it without sorting. Put and Delete
// keep the order by binary search and write the arrays in place, so a slice
// Ordered returned is valid only until the next Put or Delete: a caller that
// mutates the table inside its walk must copy first.
// The zero value is an empty table.
type Table[T any] struct {
	names []string
	items []T
}

// Len returns the number of entries.
func (t *Table[T]) Len() int { return len(t.names) }

// Get returns the entry stored under name.
func (t *Table[T]) Get(name string) (v T, ok bool) {
	if i, found := slices.BinarySearch(t.names, name); found {
		return t.items[i], true
	}
	return v, false
}

// Ordered returns the entries in ascending name order. The slice aliases
// the table until the next Put or Delete; callers must not modify it.
func (t *Table[T]) Ordered() []T { return t.items }

// Put stores v under name, replacing any entry already there, and returns
// the entry it replaced.
func (t *Table[T]) Put(name string, v T) (old T, replaced bool) {
	i, found := slices.BinarySearch(t.names, name)
	if found {
		old, t.items[i] = t.items[i], v
		return old, true
	}
	t.names = slices.Insert(t.names, i, name)
	t.items = slices.Insert(t.items, i, v)
	return old, false
}

// Delete removes the entry stored under name, if any, and returns it.
func (t *Table[T]) Delete(name string) (v T, ok bool) {
	i, found := slices.BinarySearch(t.names, name)
	if !found {
		return v, false
	}
	v = t.items[i]
	t.names = slices.Delete(t.names, i, i+1)
	t.items = slices.Delete(t.items, i, i+1)
	return v, true
}
