package core

import "backuppower/internal/resultstore"

// SetResultStore does nothing: core keeps no persistent tier. The grid
// runner serves stored sweep rows before dispatch (attach a store with
// grid.SetRowStore), so a scenario that reaches core is one no stored
// row covers, and persisting it would only add writes that are never
// read. It remains so that existing callers compile.
func SetResultStore(resultstore.Store) {}
