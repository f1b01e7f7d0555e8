package kvstore

// InflateFactor is inflateFactor, for TestInflateFactor in package
// kvstore_test, which builds an index and so cannot be in this package.
const InflateFactor = inflateFactor
