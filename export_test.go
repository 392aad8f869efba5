package sdtw

// ShardedCacheSize reports the number of salient-feature sets cached
// across si's shard engines, for tests outside the package.
func ShardedCacheSize(si *ShardedIndex) int {
	n := 0
	for _, e := range si.engines {
		n += e.inner.CacheSize()
	}
	return n
}
