package substrate

import "slices"

// Table is a name-keyed collection kept in name order — a host's instances,
// a controller's VMs — so that reads which must be deterministic (the float
// sum in Allocated, the inventory) walk it without sorting. Put and Delete
// keep the order by binary search and never write the item array in place:
// a slice Ordered returned earlier stays a snapshot of the table as it was.
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

// Ordered returns the entries in ascending name order. The slice is shared
// between calls until the next Put or Delete; callers must not modify it.
func (t *Table[T]) Ordered() []T { return t.items }

// Put stores v under name, replacing any entry already there.
func (t *Table[T]) Put(name string, v T) {
	i, found := slices.BinarySearch(t.names, name)
	if found {
		t.items = slices.Clone(t.items)
		t.items[i] = v
		return
	}
	t.names = slices.Insert(t.names, i, name)
	// Clipped to no spare capacity, Insert has to move to a new array.
	t.items = slices.Insert(slices.Clip(t.items), i, v)
}

// Delete removes the entry stored under name, if any.
func (t *Table[T]) Delete(name string) {
	if i, found := slices.BinarySearch(t.names, name); found {
		t.names = slices.Delete(t.names, i, i+1)
		t.items = slices.Delete(slices.Clone(t.items), i, i+1)
	}
}
