package workload

import (
	"fmt"

	"tcodm/internal/baseline"
	"tcodm/internal/core"
	"tcodm/internal/schema"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// Install defines every atom type and then every molecule type of sch in
// db, in name order, one DDL transaction per type.
func Install(db *core.Engine, sch *schema.Schema) error {
	for _, name := range sch.AtomTypeNames() {
		at, _ := sch.AtomType(name)
		if err := db.DefineAtomType(*at); err != nil {
			return err
		}
	}
	for _, name := range sch.MoleculeTypeNames() {
		mt, _ := sch.MoleculeType(name)
		if err := db.DefineMoleculeType(*mt); err != nil {
			return err
		}
	}
	return nil
}

// Seed installs the named default workload ("personnel" or "cad") in db:
// its schema, then its operations in transactions of 256. It returns the
// number of atoms created and of operations applied.
func Seed(db *core.Engine, name string) (atoms, ops int, err error) {
	var sch *schema.Schema
	var list []Op
	switch name {
	case "personnel":
		sch, err = PersonnelSchema()
		list = Personnel(DefaultPersonnel())
	case "cad":
		sch, err = CADSchema()
		list = CAD(DefaultCAD())
	default:
		return 0, 0, fmt.Errorf("unknown workload %q (want personnel or cad)", name)
	}
	if err != nil {
		return 0, 0, err
	}
	if err := Install(db, sch); err != nil {
		return 0, 0, err
	}
	app := NewEngineApplier(db, 256)
	ids, err := Apply(list, app)
	if err != nil {
		return 0, 0, err
	}
	return len(ids), len(list), app.Flush()
}

// EngineApplier applies workload operations to the temporal engine,
// batching BatchSize operations per transaction (1 = a transaction per
// operation; larger batches amortize commit costs).
type EngineApplier struct {
	DB        *core.Engine
	BatchSize int

	tx      *core.Txn
	pending int
}

// NewEngineApplier wraps db with the given batch size.
func NewEngineApplier(db *core.Engine, batchSize int) *EngineApplier {
	if batchSize <= 0 {
		batchSize = 1
	}
	return &EngineApplier{DB: db, BatchSize: batchSize}
}

func (a *EngineApplier) begin() (*core.Txn, error) {
	if a.tx == nil {
		tx, err := a.DB.Begin()
		if err != nil {
			return nil, err
		}
		a.tx = tx
		a.pending = 0
	}
	return a.tx, nil
}

func (a *EngineApplier) step() error {
	a.pending++
	if a.pending >= a.BatchSize {
		return a.Flush()
	}
	return nil
}

// Flush commits the open batch, if any.
func (a *EngineApplier) Flush() error {
	if a.tx == nil {
		return nil
	}
	err := a.tx.Commit()
	a.tx = nil
	return err
}

// Insert implements Applier.
func (a *EngineApplier) Insert(typeName string, vals map[string]value.V, from temporal.Instant) (value.ID, error) {
	tx, err := a.begin()
	if err != nil {
		return 0, err
	}
	id, err := tx.Insert(typeName, vals, from)
	if err != nil {
		return 0, err
	}
	return id, a.step()
}

// Update implements Applier.
func (a *EngineApplier) Update(id value.ID, attr string, v value.V, from temporal.Instant) error {
	tx, err := a.begin()
	if err != nil {
		return err
	}
	if err := tx.Set(id, attr, v, from); err != nil {
		return err
	}
	return a.step()
}

// AddRef implements Applier.
func (a *EngineApplier) AddRef(id value.ID, attr string, target value.ID, from temporal.Instant) error {
	tx, err := a.begin()
	if err != nil {
		return err
	}
	if err := tx.AddRef(id, attr, target, temporal.Open(from)); err != nil {
		return err
	}
	return a.step()
}

// RemoveRef implements Applier.
func (a *EngineApplier) RemoveRef(id value.ID, attr string, target value.ID, from temporal.Instant) error {
	tx, err := a.begin()
	if err != nil {
		return err
	}
	if err := tx.RemoveRef(id, attr, target, temporal.Open(from)); err != nil {
		return err
	}
	return a.step()
}

// Delete implements Applier.
func (a *EngineApplier) Delete(id value.ID, from temporal.Instant) error {
	tx, err := a.begin()
	if err != nil {
		return err
	}
	if err := tx.Delete(id, from); err != nil {
		return err
	}
	return a.step()
}

// StoreApplier applies workload operations to the non-temporal baseline,
// discarding valid time (the baseline keeps only current state).
type StoreApplier struct {
	Store *baseline.Store
}

// Insert implements Applier.
func (a *StoreApplier) Insert(typeName string, vals map[string]value.V, _ temporal.Instant) (value.ID, error) {
	return a.Store.Insert(typeName, vals)
}

// Update implements Applier.
func (a *StoreApplier) Update(id value.ID, attr string, v value.V, _ temporal.Instant) error {
	return a.Store.Update(id, attr, v)
}

// AddRef implements Applier.
func (a *StoreApplier) AddRef(id value.ID, attr string, target value.ID, _ temporal.Instant) error {
	return a.Store.AddRef(id, attr, target)
}

// RemoveRef implements Applier.
func (a *StoreApplier) RemoveRef(id value.ID, attr string, target value.ID, _ temporal.Instant) error {
	return a.Store.RemoveRef(id, attr, target)
}

// Delete implements Applier.
func (a *StoreApplier) Delete(id value.ID, _ temporal.Instant) error {
	return a.Store.Delete(id)
}

// ArchiveApplier applies workload operations to the snapshot-copy baseline:
// whenever valid time advances, the whole database is archived first (the
// "copy the database per version" discipline).
type ArchiveApplier struct {
	Archive *baseline.Archive
	lastT   temporal.Instant
}

func (a *ArchiveApplier) tick(from temporal.Instant) error {
	if from > a.lastT {
		a.lastT = from
		return a.Archive.Snapshot()
	}
	return nil
}

// Insert implements Applier.
func (a *ArchiveApplier) Insert(typeName string, vals map[string]value.V, from temporal.Instant) (value.ID, error) {
	if err := a.tick(from); err != nil {
		return 0, err
	}
	return a.Archive.Insert(typeName, vals)
}

// Update implements Applier.
func (a *ArchiveApplier) Update(id value.ID, attr string, v value.V, from temporal.Instant) error {
	if err := a.tick(from); err != nil {
		return err
	}
	return a.Archive.Update(id, attr, v)
}

// AddRef implements Applier.
func (a *ArchiveApplier) AddRef(id value.ID, attr string, target value.ID, from temporal.Instant) error {
	if err := a.tick(from); err != nil {
		return err
	}
	return a.Archive.AddRef(id, attr, target)
}

// RemoveRef implements Applier.
func (a *ArchiveApplier) RemoveRef(id value.ID, attr string, target value.ID, from temporal.Instant) error {
	if err := a.tick(from); err != nil {
		return err
	}
	return a.Archive.RemoveRef(id, attr, target)
}

// Delete implements Applier.
func (a *ArchiveApplier) Delete(id value.ID, from temporal.Instant) error {
	if err := a.tick(from); err != nil {
		return err
	}
	return a.Archive.Delete(id)
}
